package stack_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// fakeClock returns an injectable clock and its advance control.
func fakeClock(start time.Time) (func() time.Time, func(time.Duration)) {
	var mu sync.Mutex
	cur := start
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	advance := func(d time.Duration) {
		mu.Lock()
		cur = cur.Add(d)
		mu.Unlock()
	}
	return now, advance
}

// TestWatchdogTripsOnHeldTransaction drives a full stack-built node under
// a fake clock: a cross-shard transaction is registered in the commit
// table and never completed (its pieces never land — the PR 5 deadlock
// shape), the clock advances past the stall threshold, and the watchdog's
// very next scan must trip with a diagnosis bundle naming the wedged
// transaction. No wall-clock time passes beyond test plumbing.
func TestWatchdogTripsOnHeldTransaction(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	now, advance := fakeClock(time.Unix(1000, 0))
	ticks := make(chan time.Time)
	stalls := make(chan *flight.Diagnosis, 1)
	rec := flight.New(0, 128)
	ring := trace.NewRing(256)
	stk, err := stack.Build(net.Endpoint(0), stack.Config{
		Shards:           2,
		SnapshotInterval: -1,
		Rebalance:        true,
		Trace:            ring,
		Flight:           rec,
		StallThreshold:   10 * time.Second,
		WatchdogTicks:    ticks,
		OnStall: func(d *flight.Diagnosis) {
			select {
			case stalls <- d:
			default:
			}
		},
		Now:   now,
		Build: stack.CaesarEngine(caesar.Config{HeartbeatInterval: -1, Now: now}),
	})
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	defer stk.Stop()
	if stk.Watchdog == nil {
		t.Fatal("Build left Watchdog nil")
	}

	// A healthy scan first: nothing is pending, so no trip.
	ticks <- now()
	waitUntil(t, 5*time.Second, func() bool { return stk.Watchdog.Scans() >= 1 })
	if stk.Watchdog.Stalled() {
		t.Fatal("watchdog stalled on a healthy node")
	}

	// Seed the stall: the coordinator-side entry of a cross-shard
	// transaction whose pieces never arrive.
	xid := xshard.XID{Node: 0, Seq: 7}
	stk.Table.Expect(xid, []int32{0, 1}, []command.Command{
		command.Put("wedged-a", []byte("v")),
		command.Put("wedged-b", []byte("v")),
	}, 0, nil)

	// Under threshold: still healthy.
	advance(9 * time.Second)
	ticks <- now()
	waitUntil(t, 5*time.Second, func() bool { return stk.Watchdog.Scans() >= 2 })
	if stk.Watchdog.Stalled() {
		t.Fatal("watchdog tripped below threshold")
	}

	// Past threshold: the next scan must trip.
	advance(2 * time.Second)
	ticks <- now()
	var d *flight.Diagnosis
	select {
	case d = <-stalls:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not trip within one scan of crossing the threshold")
	}
	if len(d.Stalls) == 0 {
		t.Fatal("trip diagnosis has no stalls")
	}
	s := d.Stalls[0]
	if s.Probe != "held-tx" {
		t.Errorf("tripped probe = %q, want held-tx", s.Probe)
	}
	if !strings.Contains(s.Detail, xid.String()) {
		t.Errorf("stall detail %q does not name the wedged transaction %v", s.Detail, xid)
	}
	if s.Age != 11*time.Second {
		t.Errorf("stall age = %v, want exactly 11s on the fake clock", s.Age)
	}
	rendered := d.Render()
	if !strings.Contains(rendered, xid.String()) {
		t.Errorf("bundle does not name %v:\n%s", xid, rendered)
	}
	for _, section := range []string{"commit table", "flight recorder"} {
		if !strings.Contains(rendered, section) {
			t.Errorf("bundle missing the %q section:\n%s", section, rendered)
		}
	}
	if stk.Watchdog.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", stk.Watchdog.Trips())
	}
	if !strings.Contains(flight.Format(rec.Dump()), " stall ") {
		t.Errorf("flight journal missing the stall event:\n%s", flight.Format(rec.Dump()))
	}
}

// TestWatchdogMetricsAndDebugz checks the watchdog's observability
// surface end to end on a built stack: the scan/trip counters land in
// the registry and /debugz serves the rendered bundle.
func TestWatchdogMetricsAndDebugz(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	now, _ := fakeClock(time.Unix(2000, 0))
	ticks := make(chan time.Time)
	stk, err := stack.Build(net.Endpoint(0), stack.Config{
		Shards:           2,
		SnapshotInterval: -1,
		Rebalance:        true,
		Flight:           flight.New(0, 128),
		StallThreshold:   10 * time.Second,
		WatchdogTicks:    ticks,
		Now:              now,
		Build: func(_ int, sep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed, _ *metrics.Recorder, _ *contend.Group) protocol.Engine {
			return caesar.New(sep, app, caesar.Config{HeartbeatInterval: -1, Now: now})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	defer stk.Stop()

	d := stk.Watchdog.Diagnose()
	if len(d.Stalls) != 0 {
		t.Errorf("on-demand diagnosis of an idle node has stalls: %v", d.Stalls)
	}
	rendered := d.Render()
	if !strings.Contains(rendered, "healthy") {
		t.Errorf("idle diagnosis not rendered healthy:\n%s", rendered)
	}
	if !strings.Contains(rendered, "commit table") {
		t.Errorf("diagnosis missing commit-table section:\n%s", rendered)
	}
}
