package caesar_test

// Stable retransmission: a replica that misses a decision's broadcast
// (partitioned, or restarted from its durable log) must relearn it from
// the leader, which re-sends Stable to any replica that has not
// acknowledged delivery. A seeded delivered set must suppress
// re-execution of the re-sent decisions while still acknowledging them.

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestStableRetransmissionCatchesUpPartitionedReplica(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	stores := make([]*kvstore.Store, 3)
	reps := make([]*caesar.Replica, 3)
	cfg := caesar.Config{
		HeartbeatInterval: -1, // no failure handling: the partition must be healed by retransmission alone
		GCInterval:        20 * time.Millisecond,
		RetransmitAfter:   100 * time.Millisecond,
	}
	for i := range reps {
		stores[i] = kvstore.New()
		reps[i] = caesar.New(net.Endpoint(timestamp.NodeID(i)), protocol.Sync(stores[i]), cfg)
		reps[i].Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()

	// Cut node 2 off and decide a command among 0 and 1 (still a
	// quorum); node 2 misses the Stable broadcast entirely.
	net.Partition(0, 2)
	net.Partition(1, 2)
	done := make(chan protocol.Result, 1)
	reps[0].Submit(command.Put("k", []byte("v")), func(res protocol.Result) { done <- res })
	select {
	case res := <-done:
		if res.Err != nil {
			t.Fatalf("submit failed: %v", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("decision timed out under partition")
	}
	if _, ok := stores[2].Get("k"); ok {
		t.Fatal("partitioned node saw the command")
	}

	net.Heal(0, 2)
	net.Heal(1, 2)
	waitFor(t, 5*time.Second, func() bool {
		v, ok := stores[2].Get("k")
		return ok && string(v) == "v"
	}, "node 2 never received the retransmitted decision")
}

func TestPredeliveredSuppressesReexecution(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	stores := make([]*kvstore.Store, 3)
	reps := make([]*caesar.Replica, 3)
	cfg := caesar.Config{
		HeartbeatInterval: -1,
		GCInterval:        20 * time.Millisecond,
		RetransmitAfter:   100 * time.Millisecond,
	}
	// Node 2 claims (via its recovery seed) to have already applied the
	// first two commands node 0 will propose.
	pre := idset.New()
	pre.Add(command.ID{Node: 0, Seq: 1})
	pre.Add(command.ID{Node: 0, Seq: 2})
	for i := range reps {
		stores[i] = kvstore.New()
		c := cfg
		if i == 2 {
			c.Predelivered = pre
		}
		reps[i] = caesar.New(net.Endpoint(timestamp.NodeID(i)), protocol.Sync(stores[i]), c)
		reps[i].Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()

	for i := 0; i < 3; i++ {
		done := make(chan protocol.Result, 1)
		reps[0].Submit(command.Add("ctr", 1), func(res protocol.Result) { done <- res })
		if res := <-done; res.Err != nil {
			t.Fatalf("submit %d: %v", i, res.Err)
		}
	}
	// Nodes 0 and 1 apply all three increments; node 2 must skip the two
	// predelivered ones and apply only the third.
	waitFor(t, 5*time.Second, func() bool {
		return stores[0].Applied() == 3 && stores[1].Applied() == 3 && stores[2].Applied() == 1
	}, "unexpected apply counts with a predelivered seed")
	if v, _ := stores[2].Get("ctr"); len(v) != 8 || binary.BigEndian.Uint64(v) != 1 {
		t.Fatalf("node 2 ctr = %v, want 1 (only the non-seeded command)", v)
	}
}
