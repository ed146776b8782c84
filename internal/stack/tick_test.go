package stack_test

import (
	"errors"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/leakcheck"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// TestStartStopIdempotent starts a node twice and stops it twice: the
// second Start must not launch a second maintenance loop, the second Stop
// must return quietly, and nothing the node ran may outlive it.
func TestStartStopIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		durable bool
	}{
		{"durable", 1, true},
		{"sharded", 2, false},
		{"sharded+durable", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := memnet.New(memnet.Config{Nodes: 3})
			cfg := stack.Config{
				Shards:    tc.shards,
				Rebalance: tc.shards > 1,
				Build:     stack.CaesarEngine(caesar.Config{HeartbeatInterval: -1}),
			}
			if tc.durable {
				cfg.DataDir = t.TempDir()
			}
			stk, err := stack.Build(net.Endpoint(0), cfg)
			if err != nil {
				net.Close()
				t.Fatal(err)
			}
			stk.Start()
			stk.Start()
			stk.Stop()
			stk.Stop()
			net.Close()
			if err := leakcheck.Check(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTraceStampsInjectedClock submits a command on a node whose clock is
// injected: the trace ring the stack and its engines share must stamp
// the command's propose event with that clock, not with the wall clock,
// so a diagnosis bundle's trace lines and flight lines agree.
func TestTraceStampsInjectedClock(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	at := time.Unix(1000, 0)
	now, _ := fakeClock(at)
	rings := make([]*trace.Ring, 3)
	for i := range rings {
		rings[i] = trace.NewRing(256)
		stk, err := stack.Build(net.Endpoint(timestamp.NodeID(i)), stack.Config{
			Trace: rings[i],
			Now:   now,
			Build: stack.CaesarEngine(caesar.Config{HeartbeatInterval: -1, Now: now, Trace: rings[i]}),
		})
		if err != nil {
			t.Fatal(err)
		}
		stk.Start()
		defer stk.Stop()
		if i == 2 {
			submit(t, stk, command.Put("k", []byte("v")))
		}
	}
	found := false
	for _, e := range rings[2].Snapshot() {
		if e.Kind != trace.KindPropose {
			continue
		}
		found = true
		if !e.At.Equal(at) {
			t.Errorf("propose event stamped %v, want the injected %v", e.At, at)
		}
	}
	if !found {
		t.Fatalf("no propose event traced:\n%s", trace.Format(rings[2].Snapshot()))
	}
}

// TestTickResolvesOrphanedTransaction drives the commit table's timeout
// through Stack.Tick alone: three sharded nodes under one fake clock with
// heartbeats off, and a transaction node 0 expects whose pieces never
// land. A Tick before ResolveTimeout leaves it pending; once the clock
// passes ResolveTimeout, one Tick proposes the abort markers, and their
// consensus — the only wall-clock wait — kills the transaction.
func TestTickResolvesOrphanedTransaction(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	now, advance := fakeClock(time.Unix(3000, 0))
	stacks := make([]*stack.Stack, 3)
	for i := range stacks {
		stk, err := stack.Build(net.Endpoint(timestamp.NodeID(i)), stack.Config{
			Shards:    2,
			Rebalance: true,
			Now:       now,
			Build:     stack.CaesarEngine(caesar.Config{HeartbeatInterval: -1, Now: now}),
		})
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = stk
		stk.Start()
		defer stk.Stop()
	}
	tb := stacks[0].Table
	aborted := make(chan error, 1)
	tb.Expect(xshard.XID{Node: 0, Seq: 1}, []int32{0, 1}, []command.Command{
		command.Put("orphan-a", []byte("v")),
		command.Put("orphan-b", []byte("v")),
	}, 0, func(res protocol.Result) { aborted <- res.Err })

	advance(2 * time.Second)
	stacks[0].Tick()
	if tb.Pending() != 1 {
		t.Fatalf("Pending = %d before ResolveTimeout, want 1", tb.Pending())
	}

	advance(2 * time.Second)
	stacks[0].Tick()
	select {
	case err := <-aborted:
		if !errors.Is(err, xshard.ErrAborted) {
			t.Fatalf("client got %v, want ErrAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the orphaned transaction was not aborted:\n%v", tb.PendingDetail())
	}
	waitUntil(t, 5*time.Second, func() bool { return tb.Pending() == 0 })
}
