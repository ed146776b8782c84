// Command caesar-top is a live terminal console for a running cluster:
// one row per replica, refreshed in place, built from each node's
// /statusz JSON (served on the metrics listener). It shows the numbers an
// operator watches during an incident — throughput (differenced between
// scrapes), client-latency p50/p99, the fast-decision ratio (the
// protocol's health signal: CAESAR's whole point is deciding on the fast
// path), commit-table occupancy, the stall watchdog's state, the state
// auditor's verdict — and the latency histogram's exemplar: the concrete
// command ID behind the worst latency bucket, ready to paste into
// caesar-trace when the tail spikes.
//
// Below the replica table a hot-keys panel merges every node's /workloadz
// contention profile: the cluster's hottest keys ranked by attributed
// events, with the nack/wait/park/retry decomposition and total wait time
// each key cost. A fast-ratio drop then comes with the keys responsible.
// -hotkeys caps the panel (0 hides it).
//
// Usage:
//
//	caesar-top -nodes http://127.0.0.1:9180,http://127.0.0.1:9181,http://127.0.0.1:9182
//
// -once renders a single frame without clearing the screen (for scripts
// and smoke tests); -frames n stops after n refreshes. Unreachable nodes
// render as a "down" row; the console keeps going.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/obs"
)

// sample is one node's scrape, reduced to the console's columns.
type sample struct {
	when        time.Time
	executed    float64
	p50, p99    float64
	fast, slow  float64
	xshardHeld  float64
	shards      float64
	epoch       float64
	stalled     bool
	trips       float64
	divergences float64
	auditWrites float64
	exemplar    string
	exemplarSec float64
	hot         []contend.KeyStats
	err         error
}

// scrapeWorkload fetches one node's contention profile; a miss (older
// node, endpoint disabled) just leaves the panel without that node's
// contribution.
func scrapeWorkload(ctx context.Context, client *http.Client, base string, top int) []contend.KeyStats {
	url := fmt.Sprintf("%s/workloadz?top=%d", strings.TrimRight(base, "/"), top)
	doc, _ := obs.FetchJSON[contend.Snapshot](ctx, client, url) // a miss is an empty doc
	return doc.TopKeys
}

// nodeSeries returns the family's node-level series (empty label set);
// nodes also export per-group labeled series, which the console ignores in
// favour of the aggregate.
func nodeSeries(fams []obs.StatusFamily, name string) (obs.StatusSeries, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Labels == "" {
				return s, true
			}
		}
	}
	return obs.StatusSeries{}, false
}

// nodeValue is the family's node-level value: its unlabeled series, or,
// for a family exported only per group (the consensus counters), the sum
// of its series.
func nodeValue(fams []obs.StatusFamily, name string) float64 {
	if s, ok := nodeSeries(fams, name); ok {
		return s.Value
	}
	sum := 0.0
	for _, f := range fams {
		if f.Name == name {
			for _, s := range f.Series {
				sum += s.Value
			}
		}
	}
	return sum
}

func scrape(ctx context.Context, client *http.Client, base string) sample {
	smp := sample{when: time.Now()}
	fams, err := obs.FetchJSON[[]obs.StatusFamily](ctx, client, strings.TrimRight(base, "/")+"/statusz")
	if err != nil {
		smp.err = err
		return smp
	}
	smp.executed = nodeValue(fams, "caesar_executed_total")
	if s, ok := nodeSeries(fams, "caesar_latency_seconds"); ok {
		smp.p50, smp.p99 = s.P50, s.P99
		smp.exemplar, smp.exemplarSec = s.Exemplar, s.ExemplarSeconds
	}
	smp.fast = nodeValue(fams, "caesar_fast_decisions_total")
	smp.slow = nodeValue(fams, "caesar_slow_decisions_total")
	smp.xshardHeld = nodeValue(fams, "caesar_xshard_held")
	smp.shards = nodeValue(fams, "caesar_shards")
	smp.epoch = nodeValue(fams, "caesar_routing_epoch")
	smp.stalled = nodeValue(fams, "caesar_watchdog_stalled") > 0
	smp.trips = nodeValue(fams, "caesar_watchdog_trips_total")
	smp.divergences = nodeValue(fams, "caesar_audit_divergence_total")
	smp.auditWrites = nodeValue(fams, "caesar_audit_writes_total")
	return smp
}

// fmtDur renders a seconds value compactly (µs/ms/s).
func fmtDur(sec float64) string {
	switch {
	case sec <= 0:
		return "-"
	case sec < 1e-3:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// renderHotKeys merges the nodes' contention profiles and prints the
// cluster-wide hot-key panel: keys ranked by total attributed events,
// with the loss decomposition and the wait time each key cost.
func renderHotKeys(w io.Writer, cur []sample, top int) {
	merged := make(map[string]*contend.KeyStats)
	for _, c := range cur {
		for _, k := range c.hot {
			m := merged[k.Key]
			if m == nil {
				cp := k
				merged[k.Key] = &cp
				continue
			}
			m.Events += k.Events
			m.Touches += k.Touches
			m.Nacks += k.Nacks
			m.Waits += k.Waits
			m.Parks += k.Parks
			m.Retries += k.Retries
			m.Recoveries += k.Recoveries
			m.Holds += k.Holds
			m.WaitSeconds += k.WaitSeconds
		}
	}
	if len(merged) == 0 {
		return
	}
	keys := make([]*contend.KeyStats, 0, len(merged))
	for _, m := range merged {
		keys = append(keys, m)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Events != keys[j].Events {
			return keys[i].Events > keys[j].Events
		}
		return keys[i].Key < keys[j].Key
	})
	if len(keys) > top {
		keys = keys[:top]
	}
	fmt.Fprintf(w, "\n%-24s %5s %8s %8s %6s %6s %6s %7s %8s\n",
		"HOT KEY", "GRP", "EVENTS", "TOUCHES", "NACKS", "WAITS", "PARKS", "RETRY", "WAIT")
	for _, k := range keys {
		fmt.Fprintf(w, "%-24s %5d %8d %8d %6d %6d %6d %7d %8s\n",
			k.Key, k.Group, k.Events, k.Touches, k.Nacks, k.Waits, k.Parks,
			k.Retries, fmtDur(k.WaitSeconds))
	}
}

func render(w io.Writer, urls []string, cur, prev []sample, frame, hotTop int) {
	fmt.Fprintf(w, "caesar-top  %s  frame %d\n", time.Now().Format("15:04:05"), frame)
	fmt.Fprintf(w, "%-28s %9s %8s %8s %6s %7s %6s %9s %10s  %s\n",
		"NODE", "OPS/S", "P50", "P99", "FAST%", "XSHARD", "EPOCH", "WATCHDOG", "AUDIT", "SLOWEST")
	for i, u := range urls {
		name := strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://")
		c := cur[i]
		if c.err != nil {
			fmt.Fprintf(w, "%-28s down: %v\n", name, c.err)
			continue
		}
		ops := "-"
		if prev != nil && prev[i].err == nil {
			dt := c.when.Sub(prev[i].when).Seconds()
			if dt > 0 {
				ops = fmt.Sprintf("%.0f", (c.executed-prev[i].executed)/dt)
			}
		}
		fastPct := "-"
		if total := c.fast + c.slow; total > 0 {
			fastPct = fmt.Sprintf("%.1f", 100*c.fast/total)
		}
		wd := "ok"
		if c.trips > 0 {
			wd = fmt.Sprintf("%d trips", int64(c.trips))
		}
		if c.stalled {
			wd = "STALLED"
		}
		auditCol := "-"
		if c.auditWrites > 0 || c.divergences > 0 {
			auditCol = "ok"
		}
		if c.divergences > 0 {
			auditCol = fmt.Sprintf("DIVERGED:%d", int64(c.divergences))
		}
		slowest := "-"
		if c.exemplar != "" {
			slowest = fmt.Sprintf("%s (%s)", c.exemplar, fmtDur(c.exemplarSec))
		}
		fmt.Fprintf(w, "%-28s %9s %8s %8s %6s %7.0f %6.0f %9s %10s  %s\n",
			name, ops, fmtDur(c.p50), fmtDur(c.p99), fastPct,
			c.xshardHeld, c.epoch, wd, auditCol, slowest)
	}
	if hotTop > 0 {
		renderHotKeys(w, cur, hotTop)
	}
}

func main() {
	var (
		nodes    = flag.String("nodes", "", "comma-separated metrics base URLs, one per replica (e.g. http://h1:9180,http://h2:9180)")
		interval = flag.Duration("interval", 2*time.Second, "refresh cadence")
		frames   = flag.Int("frames", 0, "stop after this many refreshes (0 = until interrupted)")
		once     = flag.Bool("once", false, "render a single frame without clearing the screen and exit")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-node scrape timeout")
		hotkeys  = flag.Int("hotkeys", 5, "hot-key panel size, merged across the nodes' /workloadz profiles (0 hides the panel)")
	)
	flag.Parse()
	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "usage: caesar-top -nodes <url,url,...> [-interval 2s] [-once]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	urls := obs.NodeURLs(*nodes)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "caesar-top: -nodes named no URLs")
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	scrapeAll := func() []sample {
		out := make([]sample, len(urls))
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		for i, u := range urls {
			out[i] = scrape(ctx, client, u)
			if *hotkeys > 0 && out[i].err == nil {
				out[i].hot = scrapeWorkload(ctx, client, u, *hotkeys)
			}
		}
		return out
	}

	if *once {
		render(os.Stdout, urls, scrapeAll(), nil, 1, *hotkeys)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	var prev []sample
	for frame := 1; ; frame++ {
		cur := scrapeAll()
		// Clear screen + home; a full repaint per frame keeps the code
		// trivial and the flicker invisible at 2s cadence.
		fmt.Print("\x1b[2J\x1b[H")
		render(os.Stdout, urls, cur, prev, frame, *hotkeys)
		prev = cur
		if *frames > 0 && frame >= *frames {
			return
		}
		select {
		case <-sig:
			return
		case <-ticker.C:
		}
	}
}
