package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// cluster builds and starts three in-memory stacks of the given group
// count, each with its registry served over HTTP, and returns the stacks
// and their base URLs.
func cluster(t *testing.T, shards int) ([]*stack.Stack, []string) {
	t.Helper()
	net := memnet.New(memnet.Config{Nodes: 3})
	t.Cleanup(net.Close)
	stks := make([]*stack.Stack, 3)
	urls := make([]string, 3)
	for i := range stks {
		reg := obs.NewRegistry()
		stk, err := stack.Build(net.Endpoint(timestamp.NodeID(i)), stack.Config{
			Shards:  shards,
			Metrics: metrics.NewRecorder(),
			Obs:     reg,
			Build:   stack.CaesarEngine(caesar.Config{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		stk.Start()
		t.Cleanup(stk.Stop)
		srv := httptest.NewServer(reg.Handler())
		t.Cleanup(srv.Close)
		stks[i], urls[i] = stk, srv.URL
	}
	return stks, urls
}

// put submits one write through stk and waits for it to execute.
func put(t *testing.T, stk *stack.Stack, key string) {
	t.Helper()
	done := make(chan error, 1)
	stk.Engine.Submit(command.Put(key, []byte("v")), func(res protocol.Result) { done <- res.Err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("put %s never executed", key)
	}
}

// TestScrapeCountsPerGroupFamilies: the consensus counters are exported
// per group only, so the console's executed count and decision split are
// their sums — the OPS/S and FAST% columns read numbers, not "-", at one
// group and at two.
func TestScrapeCountsPerGroupFamilies(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("groups=%d", shards), func(t *testing.T) {
			stks, urls := cluster(t, shards)
			const writes = 20
			for i := 0; i < writes; i++ {
				put(t, stks[0], fmt.Sprintf("k%d", i))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			first := scrape(ctx, http.DefaultClient, urls[0])
			if first.err != nil {
				t.Fatal(first.err)
			}
			if first.executed < writes || first.fast+first.slow < writes {
				t.Fatalf("node 0 scraped executed %v, fast %v, slow %v after %d writes it led", first.executed, first.fast, first.slow, writes)
			}
			for i := 0; i < writes; i++ {
				put(t, stks[0], fmt.Sprintf("again%d", i))
			}
			second := scrape(ctx, http.DefaultClient, urls[0])
			if second.executed < first.executed+writes {
				t.Fatalf("executed went from %v to %v over %d more writes", first.executed, second.executed, writes)
			}
			var out bytes.Buffer
			render(&out, urls, []sample{second, second, second}, []sample{first, first, first}, 2, 0)
			row := strings.Fields(strings.Split(out.String(), "\n")[2])
			ops, fastPct := row[1], row[4]
			if _, err := strconv.ParseFloat(ops, 64); err != nil || ops == "0" {
				t.Errorf("OPS/S reads %q, want a positive rate:\n%s", ops, out.String())
			}
			if _, err := strconv.ParseFloat(fastPct, 64); err != nil {
				t.Errorf("FAST%% reads %q, want a number:\n%s", fastPct, out.String())
			}
		})
	}
}
