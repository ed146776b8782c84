package shard

import (
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// collector records the messages one shard handler received.
type collector struct {
	mu   sync.Mutex
	msgs []any
}

func (c *collector) handle(_ timestamp.NodeID, payload any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, payload)
}

func (c *collector) wait(t *testing.T, n int) []any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]any(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func TestShardMuxRoutesByTag(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	m0 := NewMux(net.Endpoint(0), 2)
	m1 := NewMux(net.Endpoint(1), 2)

	var s0, s1 collector
	m1.Attach(0, 0).SetHandler(s0.handle)
	m1.Attach(1, 0).SetHandler(s1.handle)

	m0.Attach(0, 0).Send(1, "for-shard-0")
	m0.Attach(1, 0).Send(1, "for-shard-1")
	m0.Attach(1, 0).Broadcast("broadcast-1")

	if got := s0.wait(t, 1); got[0] != "for-shard-0" {
		t.Fatalf("shard 0 received %v", got)
	}
	got := s1.wait(t, 2)
	if got[0] != "for-shard-1" || got[1] != "broadcast-1" {
		t.Fatalf("shard 1 received %v", got)
	}
	if s0.count() != 1 {
		t.Fatalf("shard 0 leaked %d messages from shard 1", s0.count()-1)
	}
}

func TestShardMuxDropsUntaggedAndUnhandled(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	m1 := NewMux(net.Endpoint(1), 2)
	var s0 collector
	m1.Attach(0, 0).SetHandler(s0.handle)

	// Untagged payload, out-of-range shard, and a shard with no handler:
	// all silently dropped, like transport sends to crashed peers.
	raw := net.Endpoint(0)
	raw.Send(1, "untagged")
	raw.Send(1, &Envelope{Shard: 7, Payload: "out-of-range"})
	raw.Send(1, &Envelope{Shard: 1, Payload: "no-handler"})
	raw.Send(1, &Envelope{Shard: 0, Payload: "kept"})

	if got := s0.wait(t, 1); got[0] != "kept" {
		t.Fatalf("shard 0 received %v, want only the tagged message", got)
	}
}

func TestShardMuxSubEndpointClose(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	m1 := NewMux(net.Endpoint(1), 2)
	var s0, s1 collector
	ep0 := m1.Attach(0, 0)
	ep0.SetHandler(s0.handle)
	m1.Attach(1, 0).SetHandler(s1.handle)

	sender := NewMux(net.Endpoint(0), 2)
	if err := ep0.Close(); err != nil {
		t.Fatalf("sub-endpoint close: %v", err)
	}
	sender.Attach(0, 0).Send(1, "after-close")
	sender.Attach(1, 0).Send(1, "sibling")

	// The sibling shard keeps receiving after shard 0 detached.
	if got := s1.wait(t, 1); got[0] != "sibling" {
		t.Fatalf("shard 1 received %v", got)
	}
	if s0.count() != 0 {
		t.Fatalf("closed shard 0 still received %d messages", s0.count())
	}
}

func TestShardMuxCloseDeregistersHandlers(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	m1 := NewMux(net.Endpoint(1), 2)
	var s0, s1 collector
	m1.Attach(0, 0).SetHandler(s0.handle)
	m1.Attach(1, 0).SetHandler(s1.handle)

	if err := m1.Close(); err != nil {
		t.Fatalf("mux close: %v", err)
	}
	// A late envelope already past the endpoint (e.g. pulled out of a
	// delivery queue as Close ran) must not be dispatched into a stopped
	// group: Close deregisters every shard handler under the lock.
	m1.dispatch(0, &Envelope{Shard: 0, Payload: "late-0"})
	m1.dispatch(0, &Envelope{Shard: 1, Payload: "late-1"})
	if s0.count() != 0 || s1.count() != 0 {
		t.Fatalf("dispatch after Close reached handlers: shard0=%d shard1=%d msgs",
			s0.count(), s1.count())
	}
}

func TestShardMuxSelfAndPeers(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	m := NewMux(net.Endpoint(2), 4)
	ep := m.Attach(3, 0)
	if ep.Self() != 2 {
		t.Fatalf("Self() = %v, want 2", ep.Self())
	}
	if peers := ep.Peers(); len(peers) != 3 {
		t.Fatalf("Peers() = %v, want 3 nodes", peers)
	}
}
