package caesar

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// TestCrossNodeTraceCollection runs a cluster in which every node keeps
// its OWN trace ring — the multi-process deployment shape, where no
// shared buffer exists — serves each ring over real TCP via the /tracez
// handler, and collects one command's events from all of them into a
// single causally ordered cluster timeline, exactly as cmd/caesar-trace
// does. The merged timeline must carry at least two nodes' views of the
// command (the proposer's and a remote acceptor's).
func TestCrossNodeTraceCollection(t *testing.T) {
	const n = 3
	net := memnet.New(memnet.Config{Nodes: n})
	defer net.Close()
	rings := make([]*Trace, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		rings[i] = NewTrace(4096)
		node, err := newNode(net.Endpoint(timestamp.NodeID(i)), Options{Trace: rings[i]}, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First command through node 0 gets ID c0.1.
	if _, err := nodes[0].Propose(ctx, Put("collect-key", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	id := command.ID{Node: 0, Seq: 1}

	// Propose returns on local execution; remote deliveries trail it.
	// Wait until at least two nodes' rings hold the command.
	deadline := time.Now().Add(10 * time.Second)
	for {
		have := 0
		for i := range rings {
			if len(rings[i].inner().CommandHistory(id)) > 0 {
				have++
			}
		}
		if have >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d node(s) traced %v within deadline", have, id)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Serve each node's ring over TCP, as -metrics-addr mounts /tracez.
	urls := make([]string, n)
	for i := range rings {
		srv := httptest.NewServer(trace.Handler(timestamp.NodeID(i), rings[i].inner()))
		defer srv.Close()
		urls[i] = srv.URL
	}

	dumps := trace.Collect(ctx, nil, urls, id)
	if len(dumps) != n {
		t.Fatalf("Collect returned %d dumps, want %d", len(dumps), n)
	}
	reached := 0
	for _, d := range dumps {
		if d.Err != "" {
			t.Errorf("node %v unreachable: %s", d.Node, d.Err)
		}
		if len(d.Events) > 0 {
			reached++
		}
	}
	if reached < 2 {
		t.Fatalf("command %v collected from %d node(s), want >= 2", id, reached)
	}

	merged := trace.MergeDumps(dumps)
	if len(merged) == 0 {
		t.Fatal("merged timeline is empty")
	}
	// The proposer's first event opens the timeline, and every event
	// concerns the collected command.
	if merged[0].Node != 0 {
		t.Errorf("timeline opens with %v's event, want the proposer's (p0):\n%s",
			merged[0].Node, trace.FormatTimeline(merged))
	}
	seen := map[timestamp.NodeID]bool{}
	for _, e := range merged {
		if e.Cmd != id {
			t.Fatalf("merged timeline carries foreign command %v", e.Cmd)
		}
		seen[e.Node] = true
	}
	if len(seen) < 2 {
		t.Errorf("merged timeline attributes events to %d node(s), want >= 2", len(seen))
	}
	rendered := trace.FormatTimeline(merged)
	if !strings.Contains(rendered, "propose") {
		t.Errorf("rendered timeline missing the propose milestone:\n%s", rendered)
	}
}
