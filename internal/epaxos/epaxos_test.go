package epaxos_test

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/epaxos"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	ts "github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

func factory(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
	return epaxos.New(ep, app, epaxos.Config{HeartbeatInterval: -1})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, factory)
}

func TestFastPathWithoutConflicts(t *testing.T) {
	c := enginetest.NewCluster(t, 5, memnet.Config{}, factory)
	for i := 0; i < 20; i++ {
		key := string(rune('a' + i))
		c.SubmitWait(t, i%5, command.Put(key, nil), 5*time.Second)
	}
	var fast, slow int64
	for _, e := range c.Engines {
		m := e.(*epaxos.Replica).Metrics()
		fast += m.FastDecisions.Load()
		slow += m.SlowDecisions.Load()
	}
	if fast != 20 || slow != 0 {
		t.Fatalf("want 20 fast / 0 slow, got %d fast / %d slow", fast, slow)
	}
}

func TestSlowPathUnderConflicts(t *testing.T) {
	// Sequential same-key submissions from different nodes still take the
	// fast path (deps grow but stay equal); concurrent ones from
	// different nodes must diverge and take the slow path at least once.
	c := enginetest.NewCluster(t, 5, memnet.Config{Delay: memnet.UniformDelay(2 * time.Millisecond)}, factory)
	done := make(chan struct{}, 10)
	for i := 0; i < 10; i++ {
		node := i % 5
		c.Engines[node].Submit(command.Put("hot", []byte{byte(i)}), func(protocol.Result) { done <- struct{}{} })
	}
	for i := 0; i < 10; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("timed out")
		}
	}
	var slow int64
	for _, e := range c.Engines {
		slow += e.(*epaxos.Replica).Metrics().SlowDecisions.Load()
	}
	if slow == 0 {
		t.Fatal("expected at least one slow decision under concurrent conflicts")
	}
	c.WaitTotals(t, 10, 10*time.Second)
	c.CheckOrder(t, []string{"hot"})
}

func TestRecoveryAfterLeaderCrash(t *testing.T) {
	cfg := epaxos.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    120 * time.Millisecond,
		RecoveryBackoff:   30 * time.Millisecond,
		TickInterval:      10 * time.Millisecond,
	}
	f := func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		return epaxos.New(ep, app, cfg)
	}
	c := enginetest.NewCluster(t, 5, memnet.Config{}, f)
	c.SubmitWait(t, 0, command.Put("x", []byte("pre")), 5*time.Second)

	// Node 4 proposes while partitioned from everyone but node 3, then
	// crashes: node 3 holds a pre-accepted orphan the others depend on
	// once they conflict with it.
	for _, other := range []int{0, 1, 2} {
		c.Net.Partition(4, ts.NodeID(other))
	}
	c.Engines[4].Submit(command.Put("x", []byte("orphan")), nil)
	time.Sleep(50 * time.Millisecond)
	c.Net.Crash(4)
	c.Engines[4].Stop()

	// Survivors keep proposing on the same key; execution forces the
	// orphan's recovery (no-op or command, either is consistent).
	for i := 0; i < 6; i++ {
		if res := c.SubmitWait(t, i%4, command.Put("x", []byte{byte(i)}), 20*time.Second); res.Err != nil {
			t.Fatalf("post-crash put %d failed: %v", i, res.Err)
		}
	}
}
