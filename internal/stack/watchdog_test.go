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
	stalls := make(chan *flight.Diagnosis, 1)
	rec := flight.New(0, 128)
	ring := trace.NewRing(256)
	stk, err := stack.Build(net.Endpoint(0), stack.Config{
		Shards:         2,
		Rebalance:      true,
		Trace:          ring,
		Flight:         rec,
		StallThreshold: 10 * time.Second,
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
	stk.Tick()
	if stk.Watchdog.Scans() != 1 {
		t.Fatalf("Scans = %d after the first Tick, want 1", stk.Watchdog.Scans())
	}
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
	stk.Tick()
	if stk.Watchdog.Scans() != 2 {
		t.Fatalf("Scans = %d, want 2", stk.Watchdog.Scans())
	}
	if stk.Watchdog.Stalled() {
		t.Fatal("watchdog tripped below threshold")
	}

	// Past threshold: the next scan must trip.
	advance(2 * time.Second)
	stk.Tick()
	var d *flight.Diagnosis
	select {
	case d = <-stalls:
	default:
		t.Fatal("watchdog did not trip on the first Tick past the threshold")
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
	stk, err := stack.Build(net.Endpoint(0), stack.Config{
		Shards:         2,
		Rebalance:      true,
		Flight:         flight.New(0, 128),
		StallThreshold: 10 * time.Second,
		Now:            now,
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

// blockingEngine holds every Submit until release closes, announcing the
// first on entered: a group whose inbox never drains.
type blockingEngine struct {
	protocol.Engine
	release <-chan struct{}
	entered chan<- struct{}
}

func (b blockingEngine) Submit(cmd command.Command, done protocol.DoneFunc) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	b.Engine.Submit(cmd, done)
}

// TestWatchdogScansWhileMaintenanceBlocks runs the real maintenance loop
// on the wall clock and wedges the commit table's resolution: the
// orphaned transaction's abort marker goes to a group whose Submit never
// returns. The watchdog must keep scanning past the blocked pass and trip
// on the transaction it holds — a wedged group loop is what it exists to
// report, so no pass that waits on one may stand between it and a scan.
func TestWatchdogScansWhileMaintenanceBlocks(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	stalls := make(chan *flight.Diagnosis, 1)
	build := stack.CaesarEngine(caesar.Config{HeartbeatInterval: -1})
	stk, err := stack.Build(net.Endpoint(0), stack.Config{
		Shards:           2,
		StallThreshold:   3500 * time.Millisecond,
		WatchdogInterval: 250 * time.Millisecond,
		OnStall: func(d *flight.Diagnosis) {
			select {
			case stalls <- d:
			default:
			}
		},
		Build: func(g int, ep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed, met *metrics.Recorder, ctd *contend.Group) protocol.Engine {
			return blockingEngine{Engine: build(g, ep, app, seed, met, ctd), release: release, entered: entered}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	defer stk.Stop()
	defer close(release)

	// Nothing else submits, so the first Submit is the resolution's
	// marker, due ResolveTimeout (3s) after Expect.
	xid := xshard.XID{Node: 0, Seq: 1}
	stk.Table.Expect(xid, []int32{0, 1}, []command.Command{
		command.Put("blocked-a", []byte("v")),
		command.Put("blocked-b", []byte("v")),
	}, 0, nil)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the orphaned transaction's abort marker was never submitted")
	}
	scans := stk.Watchdog.Scans()
	select {
	case d := <-stalls:
		if len(d.Stalls) == 0 || d.Stalls[0].Probe != "held-tx" {
			t.Fatalf("tripped on %v, want the held-tx probe", d.Stalls)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no trip while the resolution was blocked; scans %d → %d", scans, stk.Watchdog.Scans())
	}
	if stk.Watchdog.Scans() <= scans {
		t.Errorf("Scans = %d, no scan after the resolution blocked at %d", stk.Watchdog.Scans(), scans)
	}
}
