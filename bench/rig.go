package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/tcpnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// cluster is one workload's deployment: N node stacks in this process,
// joined by real loopback sockets (tcpnet) or by memnet with injected
// geo delays. Every node is built exactly as cmd/caesar-server builds
// one, so it pays what production pays.
type cluster struct {
	w      *workload
	stacks []*stack.Stack
	mets   []*metrics.Recorder
	trs    []*tcpnet.Transport // nil entries on memnet
	net    *memnet.Network     // nil on tcpnet
	dirs   []string            // per-node data dirs; empty unless durable
	down   []bool              // crashed nodes
	halted bool
	stalls atomic.Int64   // watchdog trips, expected 0
	bg     sync.WaitGroup // teardown of crashed nodes

	// Traced runs only: the rig's wrappers and the rings sized not to wrap.
	eps        []*tracedEndpoint
	apps       []*timedApplier
	groupRings []*trace.Ring // one per consensus group, shared by all nodes
	stackRing  *trace.Ring   // WAL, commit-table and rebalance events
}

// onStall counts a watchdog trip — the oracle fails the run on any — and
// prints the first trip's diagnosis, goroutine profile aside, to stderr:
// a wedged run is rare and its bundle is the only way to tell why.
func (c *cluster) onStall(d *flight.Diagnosis) {
	if c.stalls.Add(1) > 1 {
		return
	}
	kept := d.Sections[:0:0]
	for _, s := range d.Sections {
		if !strings.Contains(s.Name, "goroutine") {
			kept = append(kept, s)
		}
	}
	short := *d
	short.Sections = kept
	fmt.Fprintf(os.Stderr, "bench: stall watchdog tripped:\n%s\n", short.Render())
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// buildCluster constructs and starts the workload's nodes. dataRoot is
// where durable workloads put their per-node data dirs. ringEvents > 0
// builds a traced cluster — the rig's wrappers on, shared rings of that
// capacity — and 0 the plain one the end-to-end metrics come from.
func buildCluster(w *workload, seed int64, dataRoot string, ringEvents int) (*cluster, error) {
	traced := ringEvents > 0
	c := &cluster{w: w, down: make([]bool, w.nodes)}
	endpoints := make([]transport.Endpoint, w.nodes)
	if w.geo {
		c.net = memnet.New(memnet.Config{Nodes: w.nodes, Delay: memnet.GeoDelay(geoScale), Seed: seed})
		c.trs = make([]*tcpnet.Transport, w.nodes)
		for i := range endpoints {
			endpoints[i] = c.net.Endpoint(timestamp.NodeID(i))
		}
	} else {
		var err error
		// The reserved ports are released before tcpnet binds them; on
		// the rare collision with another process, reserve again.
		for attempt := 0; attempt < 5; attempt++ {
			c.trs, err = listenAll(w.nodes)
			if err == nil {
				break
			}
		}
		if err != nil {
			return nil, err
		}
		for i, tr := range c.trs {
			endpoints[i] = tr
		}
	}
	if traced {
		c.stackRing = trace.NewRing(ringEvents)
		for g := 0; g < w.shards; g++ {
			c.groupRings = append(c.groupRings, trace.NewRing(ringEvents))
		}
	}
	for i := 0; i < w.nodes; i++ {
		id := timestamp.NodeID(i)
		ep := endpoints[i]
		met := metrics.NewRecorder()
		rec := flight.New(id, 1024)
		cfg := stack.Config{
			Shards:           w.shards,
			Metrics:          met,
			Obs:              obs.NewRegistry(),
			Rebalance:        true,
			Flight:           rec,
			StallThreshold:   10 * time.Second,
			WatchdogInterval: time.Second,
			OnStall:          c.onStall,
		}
		if w.durable {
			dir := filepath.Join(dataRoot, fmt.Sprintf("node%d", i))
			c.dirs = append(c.dirs, dir)
			cfg.DataDir = dir
		}
		// ringFor picks the ring a group's engine records into. Untraced:
		// the server's one 4096-event ring per node. Traced: one large
		// ring per group shared by all nodes — command IDs are only
		// unique within a group, so groups must not share a ring.
		ring := trace.NewRing(4096)
		ringFor := func(int) *trace.Ring { return ring }
		cfg.Trace = ring
		if traced {
			ringFor = func(g int) *trace.Ring { return c.groupRings[g] }
			cfg.Trace = c.stackRing
			tep := &tracedEndpoint{Endpoint: ep}
			c.eps = append(c.eps, tep)
			ep = tep
			store := kvstore.New()
			app := &timedApplier{inner: batch.NewApplier(store)}
			c.apps = append(c.apps, app)
			cfg.Store, cfg.Applier = store, app
		}
		cfg.Build = func(g int, sep transport.Endpoint, app protocol.Applier, gseed wal.GroupSeed, gmet *metrics.Recorder, ctd *contend.Group) protocol.Engine {
			return caesar.New(sep, app, caesar.Config{
				Metrics:      gmet,
				Contend:      ctd,
				Trace:        ringFor(g),
				Flight:       rec,
				FlightGroup:  int32(g),
				Predelivered: gseed.Delivered,
				SeqFloor:     gseed.SeqFloor,
				ClockSeed:    gseed.ClockSeed,
				ReserveSeq:   gseed.ReserveSeq,
				ReserveClock: gseed.ReserveClock,
			})
		}
		stk, err := stack.Build(ep, cfg)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("building node %d: %w", i, err)
		}
		c.stacks = append(c.stacks, stk)
		c.mets = append(c.mets, met)
	}
	for _, stk := range c.stacks {
		stk.Start()
	}
	return c, nil
}

func listenAll(n int) ([]*tcpnet.Transport, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	trs := make([]*tcpnet.Transport, 0, n)
	for i := 0; i < n; i++ {
		tr, err := tcpnet.Listen(tcpnet.Config{Self: timestamp.NodeID(i), Addrs: addrs})
		if err != nil {
			for _, t := range trs {
				t.Close()
			}
			return nil, err
		}
		trs = append(trs, tr)
	}
	return trs, nil
}

// deafen cuts every link INTO the node: it keeps sending what it already
// decided but hears nothing more, so it decides nothing more. The crash
// schedule deafens the victim deafFor before killing it, which gives the
// decisions it has already broadcast time to reach every survivor; see
// README, "Findings at the baseline", for why a decision delivered to
// only some survivors must be avoided today. Only memnet deployments can
// be crashed.
func (c *cluster) deafen(node int) {
	for i := 0; i < c.w.nodes; i++ {
		if i != node {
			c.net.SetDropProb(timestamp.NodeID(i), timestamp.NodeID(node), 1)
		}
	}
}

// deafFor exceeds two of the longest injected one-way delays: one for
// replies already travelling to the victim, one for the decisions they
// trigger to reach the farthest survivor.
const deafFor = 50 * time.Millisecond

// crash kills the node: its links go dark at once, then its stack is torn
// down in the background (failing whatever it still had in flight) so the
// caller's schedule is not held up.
func (c *cluster) crash(node int) {
	c.net.Crash(timestamp.NodeID(node))
	c.down[node] = true
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		c.stacks[node].Stop()
	}()
}

// live returns the indices of the nodes that were not crashed.
func (c *cluster) live() []int {
	var out []int
	for i, d := range c.down {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// stop shuts every live node down and releases the network.
func (c *cluster) stop() {
	if c.halted {
		return
	}
	c.halted = true
	var wg sync.WaitGroup
	for i, stk := range c.stacks {
		if c.down[i] {
			continue
		}
		wg.Add(1)
		go func(stk *stack.Stack) {
			defer wg.Done()
			stk.Stop()
		}(stk)
	}
	wg.Wait()
	c.bg.Wait()
	for _, tr := range c.trs {
		if tr != nil {
			tr.Close()
		}
	}
	if c.net != nil {
		c.net.Close()
	}
}

// removeData deletes the durable workload's data dirs.
func (c *cluster) removeData() {
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// tracedEndpoint is the rig's transport wrapper for the traced run: it
// counts outbound messages by payload type, times how long the caller is
// held inside Send, and keeps a sample of real payloads for the wire
// microbenchmark.
type tracedEndpoint struct {
	transport.Endpoint

	mu      sync.Mutex
	byType  map[string]int64
	samples []any

	sends  atomic.Int64
	sendNs atomic.Int64
}

// wireSamples caps the payload sample the wire microbenchmark replays.
const wireSamples = 2048

func (e *tracedEndpoint) note(payload any) {
	e.mu.Lock()
	if e.byType == nil {
		e.byType = make(map[string]int64)
	}
	e.byType[reflect.TypeOf(payload).String()]++
	if len(e.samples) < wireSamples {
		e.samples = append(e.samples, payload)
	}
	e.mu.Unlock()
}

func (e *tracedEndpoint) Send(to timestamp.NodeID, payload any) {
	e.note(payload)
	start := time.Now()
	e.Endpoint.Send(to, payload)
	e.sendNs.Add(int64(time.Since(start)))
	e.sends.Add(1)
}

func (e *tracedEndpoint) Broadcast(payload any) {
	e.note(payload)
	start := time.Now()
	e.Endpoint.Broadcast(payload)
	e.sendNs.Add(int64(time.Since(start)))
	e.sends.Add(int64(len(e.Peers())))
}

// reset forgets what was recorded so far (warm-up traffic) but keeps
// sampling.
func (e *tracedEndpoint) reset() {
	e.mu.Lock()
	e.byType, e.samples = nil, nil
	e.mu.Unlock()
	e.sends.Store(0)
	e.sendNs.Store(0)
}

// timedApplier is the rig's wrapper around the node-level applier it
// hands to stack.Config.Applier in the traced run: it times every call
// into the batch unpacker + store. It forwards all four applier facets
// the layers above type-assert.
type timedApplier struct {
	inner batch.Applier
	calls atomic.Int64
	ns    atomic.Int64
}

var _ protocol.TimestampedAtomicApplier = (*timedApplier)(nil)

func (a *timedApplier) done(start time.Time) {
	a.ns.Add(int64(time.Since(start)))
	a.calls.Add(1)
}

func (a *timedApplier) Apply(cmd command.Command) []byte {
	defer a.done(time.Now())
	return a.inner.Apply(cmd)
}

func (a *timedApplier) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	defer a.done(time.Now())
	return a.inner.ApplyAt(cmd, ts)
}

func (a *timedApplier) ApplyAll(cmds []command.Command) [][]byte {
	defer a.done(time.Now())
	return a.inner.ApplyAll(cmds)
}

func (a *timedApplier) ApplyAllAt(cmds []command.Command, ts timestamp.Timestamp) [][]byte {
	defer a.done(time.Now())
	return a.inner.ApplyAllAt(cmds, ts)
}
