// Package enginetest is a shared conformance battery for the five consensus
// engines: every protocol.Engine implementation must provide the same
// replicated-state-machine contract, so the same tests run against each.
//
// The checked properties are the Generalized Consensus specification (§III
// of the CAESAR paper) observed at the application: every submitted command
// executes exactly once on every replica (non-triviality + liveness), and
// conflicting commands — commands on the same key — execute in the same
// relative order on every replica (consistency). Non-conflicting commands
// may interleave differently, which is exactly the freedom Generalized
// Consensus grants.
package enginetest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/leakcheck"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// Factory builds one replica of the engine under test over app, the
// replica's state machine.
type Factory func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine

// Recorder is the test applier: a tiny KV store that logs per-key execution
// order.
type Recorder struct {
	mu     sync.Mutex
	perKey map[string][]command.ID
	data   map[string][]byte
	total  int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{perKey: make(map[string][]command.ID), data: make(map[string][]byte)}
}

// The Recorder fills the node state machine role
// (protocol.TimestampedAtomicApplier), so layered engines under test can
// stack their chain on it; it ignores timestamps.
var _ protocol.TimestampedAtomicApplier = (*Recorder)(nil)

func (r *Recorder) ApplyAt(cmd command.Command, _ timestamp.Timestamp) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyLocked(cmd)
}

func (r *Recorder) ApplyAllAt(cmds []command.Command, _ timestamp.Timestamp) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]byte, len(cmds))
	for i, cmd := range cmds {
		out[i] = r.applyLocked(cmd)
	}
	return out
}

func (r *Recorder) applyLocked(cmd command.Command) []byte {
	r.total++
	switch cmd.Op {
	case command.OpPut:
		r.perKey[cmd.Key] = append(r.perKey[cmd.Key], cmd.ID)
		r.data[cmd.Key] = cmd.Value
		return nil
	case command.OpGet:
		r.perKey[cmd.Key] = append(r.perKey[cmd.Key], cmd.ID)
		return r.data[cmd.Key]
	default:
		return nil
	}
}

// Total returns the number of executed commands.
func (r *Recorder) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Key returns the execution order observed for one key.
func (r *Recorder) Key(k string) []command.ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]command.ID, len(r.perKey[k]))
	copy(out, r.perKey[k])
	return out
}

// Cluster is a running N-replica deployment of the engine under test.
type Cluster struct {
	Net      *memnet.Network
	Engines  []protocol.Engine
	Recorder []*Recorder
}

// NewCluster builds and starts n replicas over a fresh memnet.
func NewCluster(t testing.TB, n int, netCfg memnet.Config, factory Factory) *Cluster {
	t.Helper()
	netCfg.Nodes = n
	net := memnet.New(netCfg)
	c := &Cluster{Net: net}
	for i := 0; i < n; i++ {
		rec := NewRecorder()
		eng := factory(net.Endpoint(timestamp.NodeID(i)), rec)
		c.Recorder = append(c.Recorder, rec)
		c.Engines = append(c.Engines, eng)
	}
	for _, e := range c.Engines {
		e.Start()
	}
	t.Cleanup(func() {
		for _, e := range c.Engines {
			e.Stop()
		}
		net.Close()
	})
	return c
}

// SubmitWait submits one command on the given replica and waits for its
// execution there.
func (c *Cluster) SubmitWait(t testing.TB, node int, cmd command.Command, timeout time.Duration) protocol.Result {
	t.Helper()
	ch := make(chan protocol.Result, 1)
	c.Engines[node].Submit(cmd, func(res protocol.Result) { ch <- res })
	select {
	case res := <-ch:
		return res
	case <-time.After(timeout):
		t.Fatalf("node %d: submit of %v timed out after %v", node, cmd, timeout)
		return protocol.Result{}
	}
}

// WaitTotals blocks until every replica executed at least want commands.
func (c *Cluster) WaitTotals(t testing.TB, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, rec := range c.Recorder {
			if rec.Total() < want {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for i, rec := range c.Recorder {
				t.Logf("replica %d executed %d/%d", i, rec.Total(), want)
			}
			t.Fatalf("timed out waiting for %d executions per replica", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// CheckOrder asserts that every replica executed each key's commands in the
// same order.
func (c *Cluster) CheckOrder(t testing.TB, keys []string) {
	t.Helper()
	for _, k := range keys {
		want := c.Recorder[0].Key(k)
		for i := 1; i < len(c.Recorder); i++ {
			got := c.Recorder[i].Key(k)
			if len(got) != len(want) {
				t.Fatalf("key %q: replica %d executed %d commands, replica 0 executed %d",
					k, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("key %q diverges at %d: replica %d has %v, replica 0 has %v",
						k, j, i, got[j], want[j])
				}
			}
		}
	}
}

// recordingEP counts what reaches the transport that a replica should
// have kept on its own loop.
type recordingEP struct {
	transport.Endpoint
	selfSends, broadcasts atomic.Int64
}

func (e *recordingEP) Send(to timestamp.NodeID, payload any) {
	if to == e.Self() {
		e.selfSends.Add(1)
	}
	e.Endpoint.Send(to, payload)
}

func (e *recordingEP) Broadcast(payload any) {
	e.broadcasts.Add(1)
	e.Endpoint.Broadcast(payload)
}

// lifecycle checks the Start / Stop contract: new → running → stopped,
// forward only, in-flight submissions failed exactly once, safe under
// concurrent calls. It waits on callbacks and returns, never on sleeps.
func lifecycle(t *testing.T, factory Factory) {
	// submit proposes on e and returns where its callback reports to; a
	// second invocation of the callback fails the test.
	submit := func(e protocol.Engine) <-chan protocol.Result {
		ch := make(chan protocol.Result, 1)
		e.Submit(command.Put("k", nil), func(res protocol.Result) {
			select {
			case ch <- res:
			default:
				t.Error("submission callback fired twice")
			}
		})
		return ch
	}
	// stopped waits for the callback and requires ErrStopped.
	stopped := func(what string, ch <-chan protocol.Result) {
		t.Helper()
		select {
		case res := <-ch:
			if res.Err != protocol.ErrStopped {
				t.Fatalf("%s: got %+v, want ErrStopped", what, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: callback never fired", what)
		}
	}

	t.Run("StopFailsInFlightOnce", func(t *testing.T) {
		c := NewCluster(t, 3, memnet.Config{}, factory)
		c.Net.Partition(0, 1)
		c.Net.Partition(0, 2)
		inFlight := submit(c.Engines[0]) // no quorum reachable: it stays in flight
		c.Engines[0].Stop()
		stopped("in flight at Stop", inFlight)
		c.Engines[0].Stop() // twice: a second failure trips submit's check
		stopped("submitted after Stop", submit(c.Engines[0]))
	})

	t.Run("StopBeforeStartIsFinal", func(t *testing.T) {
		net := memnet.New(memnet.Config{Nodes: 3})
		e := factory(net.Endpoint(0), NewRecorder())
		queued := submit(e)
		e.Stop()
		stopped("queued before a Stop that preceded Start", queued)
		e.Start()
		stopped("submitted after Stop, Start", submit(e))
		net.Close()
		if err := leakcheck.Check(5 * time.Second); err != nil {
			t.Fatalf("Stop, Start left something running: %v", err)
		}
	})

	t.Run("ConcurrentStartStop", func(t *testing.T) {
		net := memnet.New(memnet.Config{Nodes: 3})
		for round := 0; round < 50; round++ {
			e := factory(net.Endpoint(0), NewRecorder())
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); e.Start() }()
			go func() { defer wg.Done(); e.Stop() }()
			wg.Wait()
			e.Stop() // whichever order they took, the engine is down after this
		}
		net.Close()
		if err := leakcheck.Check(5 * time.Second); err != nil {
			t.Fatalf("racing Start and Stop left something running: %v", err)
		}
	})
}

// Run executes the full conformance battery.
func Run(t *testing.T, factory Factory) {
	t.Run("Lifecycle", func(t *testing.T) { lifecycle(t, factory) })

	t.Run("SingleCommand", func(t *testing.T) {
		c := NewCluster(t, 5, memnet.Config{}, factory)
		res := c.SubmitWait(t, 0, command.Put("x", []byte("v")), 5*time.Second)
		if res.Err != nil {
			t.Fatalf("submit failed: %v", res.Err)
		}
		c.WaitTotals(t, 1, 5*time.Second)
	})

	t.Run("ReadYourWrite", func(t *testing.T) {
		c := NewCluster(t, 5, memnet.Config{}, factory)
		if res := c.SubmitWait(t, 2, command.Put("k", []byte("hello")), 5*time.Second); res.Err != nil {
			t.Fatalf("put failed: %v", res.Err)
		}
		res := c.SubmitWait(t, 2, command.Get("k"), 5*time.Second)
		if string(res.Value) != "hello" {
			t.Fatalf("get returned %q, want %q", res.Value, "hello")
		}
	})

	t.Run("SequentialConflicts", func(t *testing.T) {
		c := NewCluster(t, 5, memnet.Config{}, factory)
		const total = 30
		for i := 0; i < total; i++ {
			if res := c.SubmitWait(t, i%5, command.Put("hot", []byte{byte(i)}), 5*time.Second); res.Err != nil {
				t.Fatalf("put %d failed: %v", i, res.Err)
			}
		}
		c.WaitTotals(t, total, 10*time.Second)
		c.CheckOrder(t, []string{"hot"})
	})

	t.Run("ConcurrentConflicts", func(t *testing.T) {
		c := NewCluster(t, 5, memnet.Config{Jitter: 200 * time.Microsecond}, factory)
		const perNode = 40
		keys := []string{"a", "b", "c"}
		var wg sync.WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(node + 1)))
				for j := 0; j < perNode; j++ {
					key := keys[rng.Intn(len(keys))]
					c.SubmitWait(t, node, command.Put(key, []byte{byte(j)}), 20*time.Second)
				}
			}(i)
		}
		wg.Wait()
		c.WaitTotals(t, 5*perNode, 20*time.Second)
		c.CheckOrder(t, keys)
	})

	t.Run("NoSelfTraffic", func(t *testing.T) {
		// A replica steps what it sends itself on its own loop: no
		// message addressed to self, and no Broadcast (which includes
		// self), ever reaches the transport.
		var eps []*recordingEP
		c := NewCluster(t, 5, memnet.Config{Jitter: 200 * time.Microsecond}, func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
			rec := &recordingEP{Endpoint: ep}
			eps = append(eps, rec)
			return factory(rec, app)
		})
		const perNode = 10
		keys := []string{"a", "b"}
		var wg sync.WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				for j := 0; j < perNode; j++ {
					c.SubmitWait(t, node, command.Put(keys[(node+j)%len(keys)], []byte{byte(j)}), 20*time.Second)
				}
			}(i)
		}
		wg.Wait()
		c.WaitTotals(t, 5*perNode, 20*time.Second)
		c.CheckOrder(t, keys)
		for i, ep := range eps {
			if s, b := ep.selfSends.Load(), ep.broadcasts.Load(); s != 0 || b != 0 {
				t.Errorf("replica %d handed its transport %d self-addressed sends and %d broadcasts, want none", i, s, b)
			}
		}
	})

	t.Run("DisjointKeysConcurrent", func(t *testing.T) {
		c := NewCluster(t, 5, memnet.Config{}, factory)
		const perNode = 30
		var wg sync.WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				for j := 0; j < perNode; j++ {
					key := fmt.Sprintf("n%d-%d", node, j)
					c.SubmitWait(t, node, command.Put(key, nil), 20*time.Second)
				}
			}(i)
		}
		wg.Wait()
		c.WaitTotals(t, 5*perNode, 20*time.Second)
	})

	t.Run("GeoLatencies", func(t *testing.T) {
		if testing.Short() {
			t.Skip("geo latencies are slow")
		}
		c := NewCluster(t, 5, memnet.Config{Delay: memnet.GeoDelay(0.02)}, factory)
		const perNode = 8
		var wg sync.WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(node + 7)))
				for j := 0; j < perNode; j++ {
					key := fmt.Sprintf("g%d", rng.Intn(4))
					c.SubmitWait(t, node, command.Put(key, nil), 20*time.Second)
				}
			}(i)
		}
		wg.Wait()
		c.WaitTotals(t, 5*perNode, 20*time.Second)
		c.CheckOrder(t, []string{"g0", "g1", "g2", "g3"})
	})
}
