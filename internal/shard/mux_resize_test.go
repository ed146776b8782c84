package shard

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/memnet"
)

// TestShardMuxBuffersEarlyTraffic covers the resize growth race: traffic
// for a shard slot that does not exist yet (a peer installed the new epoch
// first) must be buffered and delivered once the local instance attaches —
// dropping it would lose Stable broadcasts the new group can never
// recover.
func TestShardMuxBuffersEarlyTraffic(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	a := NewMux(net.Endpoint(0), 2)
	defer a.Close()
	b := NewMux(net.Endpoint(1), 2)
	defer b.Close()

	// Node 0 already grew to 4 shards (epoch 1); node 1 has not.
	sender := a.Attach(3, 1)
	sender.Send(1, "early-1")
	sender.Send(1, "early-2")
	time.Sleep(20 * time.Millisecond) // let the transport deliver into the buffer

	var c collector
	b.Attach(3, 1).SetHandler(c.handle)
	got := c.wait(t, 2)
	if got[0] != "early-1" || got[1] != "early-2" {
		t.Fatalf("buffered traffic replayed as %v", got)
	}
}

// TestShardMuxDropsStaleGenerations covers the retire/revive race: a dead
// instance's traffic (older generation) must not reach the slot's fresh
// instance.
func TestShardMuxDropsStaleGenerations(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	a := NewMux(net.Endpoint(0), 4)
	defer a.Close()
	b := NewMux(net.Endpoint(1), 4)
	defer b.Close()

	oldSender := a.Attach(3, 0)
	var c collector
	b.Attach(3, 2).SetHandler(c.handle) // revived at epoch 2
	newSender := a.Attach(3, 2)

	oldSender.Send(1, "stale")
	newSender.Send(1, "fresh")
	got := c.wait(t, 1)
	if got[0] != "fresh" {
		t.Fatalf("fresh instance received %v, want only the fresh message", got)
	}
	time.Sleep(20 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("stale-generation traffic leaked: %d messages", c.count())
	}
}

// TestShardMuxRetireDropsAndRevives checks the retire lifecycle: a retired
// slot drops traffic, and Attach with a newer generation revives it with a
// clean buffer.
func TestShardMuxRetireDropsAndRevives(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 2})
	defer net.Close()
	a := NewMux(net.Endpoint(0), 2)
	defer a.Close()
	b := NewMux(net.Endpoint(1), 2)
	defer b.Close()

	var c collector
	b.Attach(1, 0).SetHandler(c.handle)
	a.Attach(1, 0).Send(1, "before")
	c.wait(t, 1)

	b.Retire(1)
	a.Attach(1, 0).Send(1, "while-retired")
	time.Sleep(20 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("retired slot delivered traffic: %d messages", c.count())
	}

	var c2 collector
	b.Attach(1, 1).SetHandler(c2.handle)
	a.Attach(1, 1).Send(1, "revived")
	if got := c2.wait(t, 1); got[0] != "revived" {
		t.Fatalf("revived slot got %v", got)
	}
	if c2.count() != 1 {
		t.Fatalf("revived slot replayed pre-retirement traffic: %d messages", c2.count())
	}
}
