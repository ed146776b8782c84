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

// TestShardMuxRoutesBareToGroupZeroAndDropsUnhandled: group 0 travels bare,
// so an untagged payload reaches group 0 at generation 0. Envelopes out of
// range or of a stale generation are still dropped, and early ones — a
// generation or a group not attached yet — are still buffered.
func TestShardMuxRoutesBareToGroupZeroAndDropsUnhandled(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	m1 := NewMux(net.Endpoint(1), 2)
	var s0, s1 collector
	m1.Attach(0, 0).SetHandler(s0.handle)
	m1.Attach(1, 2).SetHandler(s1.handle)

	raw := net.Endpoint(0)
	raw.Send(1, "untagged")
	raw.Send(1, &Envelope{Shard: MaxGroups, Payload: "out-of-range"})
	raw.Send(1, &Envelope{Shard: 1, Gen: 1, Payload: "stale"})
	raw.Send(1, &Envelope{Shard: 1, Gen: 3, Payload: "early-gen"})
	raw.Send(1, &Envelope{Shard: 2, Payload: "early-group"})
	raw.Send(1, &Envelope{Shard: 1, Gen: 2, Payload: "current"})

	if got := s0.wait(t, 1); got[0] != "untagged" {
		t.Fatalf("group 0 received %v, want the bare payload", got)
	}
	if got := s1.wait(t, 1); got[0] != "current" {
		t.Fatalf("group 1 received %v, want only its current generation", got)
	}
	var late1, s2 collector
	m1.Attach(1, 3).SetHandler(late1.handle)
	m1.Attach(2, 0).SetHandler(s2.handle)
	if got := late1.wait(t, 1); got[0] != "early-gen" {
		t.Fatalf("group 1 at generation 3 received %v, want the buffered message", got)
	}
	if got := s2.wait(t, 1); got[0] != "early-group" {
		t.Fatalf("group 2 received %v, want the buffered message", got)
	}
	time.Sleep(20 * time.Millisecond)
	if s0.count() != 1 || s1.count() != 1 || late1.count() != 1 || s2.count() != 1 {
		t.Fatalf("dropped traffic was delivered: %d/%d/%d/%d messages", s0.count(), s1.count(), late1.count(), s2.count())
	}
}

// TestGroupZeroSendsBareAndOthersEnveloped pins the framing rule on the
// sending side: group 0's payloads leave the mux as they are, any other
// group's inside an envelope of its shard and generation.
func TestGroupZeroSendsBareAndOthersEnveloped(t *testing.T) {
	rec := &recordingEP{}
	m := NewMux(rec, 2)
	m.Attach(0, 0).Send(1, "zero")
	m.Attach(0, 0).Broadcast("zero-all")
	m.Attach(1, 4).Send(1, "one")
	if len(rec.sent) != 3 || rec.sent[0] != "zero" || rec.sent[1] != "zero-all" {
		t.Fatalf("group 0 sent %v, want its payloads bare", rec.sent)
	}
	if env, ok := rec.sent[2].(*Envelope); !ok || env.Shard != 1 || env.Gen != 4 || env.Payload != "one" {
		t.Fatalf("group 1 sent %#v, want an envelope of shard 1 generation 4", rec.sent[2])
	}
}

// TestGroupZeroAttachesAtGenerationZeroOnly: a bare frame carries no
// generation, so group 0 at any other generation could not be told from
// its predecessor; Attach refuses it loudly.
func TestGroupZeroAttachesAtGenerationZeroOnly(t *testing.T) {
	m := NewMux(&recordingEP{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Attach(0, 1) did not panic")
		}
	}()
	m.Attach(0, 1)
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
