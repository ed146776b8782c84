package caesar

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// TestSlowProposalPathWhenFastQuorumUnavailable drives the §V-D path: with
// two of five nodes down, only a classic quorum answers, so the leader
// must time out, run the slow proposal phase and still decide.
func TestSlowProposalPathWhenFastQuorumUnavailable(t *testing.T) {
	if testing.Short() {
		t.Skip("stress workload (fast-quorum timeouts)")
	}
	cfg := Config{HeartbeatInterval: -1, FastTimeout: 60 * time.Millisecond, TickInterval: 10 * time.Millisecond}
	c := newCluster(t, 5, memnet.Config{}, cfg)
	c.net.Crash(3)
	c.net.Crash(4)
	c.replicas[3].Stop()
	c.replicas[4].Stop()

	for i := 0; i < 5; i++ {
		res := submitAndWait(t, c.replicas[i%3], command.Put("k", []byte{byte(i)}), 10*time.Second)
		if res.Err != nil {
			t.Fatalf("put %d failed: %v", i, res.Err)
		}
	}
	skip := map[int]bool{3: true, 4: true}
	c.waitTotals(t, 5, 10*time.Second, skip)
	c.checkOrder(t, []string{"k"}, skip)

	var slow int64
	for i := 0; i < 3; i++ {
		slow += c.replicas[i].Metrics().SlowDecisions.Load()
	}
	if slow != 5 {
		t.Fatalf("want 5 slow decisions via the slow proposal phase, got %d", slow)
	}
}

// TestGarbageCollectionPurgesHistory checks that fully delivered commands
// leave the history and conflict index once every node acknowledged them.
func TestGarbageCollectionPurgesHistory(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1, GCInterval: 20 * time.Millisecond, TickInterval: 10 * time.Millisecond}
	c := newCluster(t, 5, memnet.Config{}, cfg)
	const total = 50
	for i := 0; i < total; i++ {
		submitAndWait(t, c.replicas[i%5], command.Put(fmt.Sprintf("k%d", i%7), []byte{byte(i)}), 5*time.Second)
	}
	c.waitTotals(t, total, 5*time.Second, nil)

	// Within a few GC cycles every record must be purged everywhere.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		remaining := 0
		for _, rep := range c.replicas {
			done := make(chan int, 1)
			rep := rep // go.mod says 1.21: the loop variable is shared
			rep.Inspect(func() { done <- len(rep.hist.recs) })
			remaining += <-done
		}
		if remaining == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("garbage collection left records behind")
}

// TestHighConflictStress hammers a tiny key space from every node with
// jittered delivery and verifies agreement plus bounded history (GC keeps
// up under load).
func TestHighConflictStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress workload")
	}
	cfg := Config{HeartbeatInterval: -1, GCInterval: 25 * time.Millisecond, TickInterval: 10 * time.Millisecond}
	c := newCluster(t, 5, memnet.Config{Jitter: 300 * time.Microsecond, Seed: 11}, cfg)
	const perNode = 150
	keys := []string{"a", "b"}
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node * 13)))
			pending := make(chan struct{}, 8) // 8 outstanding per node
			var inner sync.WaitGroup
			for j := 0; j < perNode; j++ {
				pending <- struct{}{}
				inner.Add(1)
				key := keys[rng.Intn(len(keys))]
				c.replicas[node].Submit(command.Put(key, []byte{byte(j)}), func(protocol.Result) {
					<-pending
					inner.Done()
				})
			}
			inner.Wait()
		}(i)
	}
	wg.Wait()
	c.waitTotals(t, 5*perNode, 30*time.Second, nil)
	c.checkOrder(t, keys, nil)
}

// TestDeliveryFollowsTimestampOrder verifies the core ordering invariant
// (Theorem 1 observed at delivery): conflicting commands execute in the
// order of their final timestamps.
func TestDeliveryFollowsTimestampOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("stress workload")
	}
	cfg := Config{HeartbeatInterval: -1, GCInterval: -1}
	c := newCluster(t, 5, memnet.Config{Jitter: 200 * time.Microsecond, Seed: 3}, cfg)
	const total = 120
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		c.replicas[i%5].Submit(command.Put("hot", []byte{byte(i)}), func(protocol.Result) { wg.Done() })
	}
	wg.Wait()
	c.waitTotals(t, total, 20*time.Second, nil)
	c.checkOrder(t, []string{"hot"}, nil)

	// With GC disabled, inspect node 0's final history: delivery order
	// must equal final-timestamp order.
	out := make(chan map[command.ID]timestamp.Timestamp, 1)
	r := c.replicas[0]
	r.Inspect(func() {
		tsOf := make(map[command.ID]timestamp.Timestamp, len(r.hist.recs))
		for id, rec := range r.hist.recs {
			tsOf[id] = rec.ts
		}
		out <- tsOf
	})
	tsOf := <-out
	if len(tsOf) != total {
		t.Fatalf("history holds %d records, want %d", len(tsOf), total)
	}
	delivered := c.logs[0].Key("hot")
	for i := 1; i < len(delivered); i++ {
		prev, cur := tsOf[delivered[i-1]], tsOf[delivered[i]]
		if !prev.Less(cur) {
			t.Fatalf("delivery order violates timestamp order at %d: %v ≥ %v", i, prev, cur)
		}
	}
}
