package caesar_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	caesar "github.com/caesar-consensus/caesar"
)

// TestShardedClusterEndToEnd drives a 3-node, 4-shard cluster the way the
// examples do: proposals through every node, keys covering every shard,
// and per-shard execution validated with atomic counters (an Add stream is
// only correct if its shard executed the conflicting commands serially and
// exactly once).
func TestShardedClusterEndToEnd(t *testing.T) {
	const nodes, shards = 3, 4
	cluster, err := caesar.NewLocalCluster(nodes, caesar.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if got := cluster.Node(0).Shards(); got != shards {
		t.Fatalf("Node(0).Shards() = %d, want %d", got, shards)
	}

	// One counter key per shard, so the workload provably touches every
	// consensus group.
	counters := make([]string, shards)
	for s := range counters {
		for i := 0; counters[s] == ""; i++ {
			if k := fmt.Sprintf("counter/%d", i); caesar.ShardOf(k, shards) == s {
				counters[s] = k
			}
		}
	}

	// Every node increments every shard's counter concurrently; the adds
	// on one key conflict, so each shard must order them cluster-wide.
	const addsPerNodePerShard = 5
	var wg sync.WaitGroup
	errs := make(chan error, nodes*shards)
	for n := 0; n < nodes; n++ {
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(n, s int) {
				defer wg.Done()
				node := cluster.Node(n)
				for i := 0; i < addsPerNodePerShard; i++ {
					if _, err := node.Propose(ctx, caesar.Add(counters[s], 1)); err != nil {
						errs <- fmt.Errorf("node %d shard %d add %d: %w", n, s, i, err)
						return
					}
				}
			}(n, s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly-once, serial execution per shard: each counter must read the
	// precise total through consensus, from a node that did not touch it
	// last.
	const want = nodes * addsPerNodePerShard
	for s, key := range counters {
		val, err := cluster.Node((s+1)%nodes).Propose(ctx, caesar.Get(key))
		if err != nil {
			t.Fatalf("get %q: %v", key, err)
		}
		if got := caesar.DecodeInt(val); got != want {
			t.Errorf("shard %d counter %q = %d, want %d", s, key, got, want)
		}
	}

	// Plain puts across many keys: values are visible cluster-wide via
	// consensus reads and the proposer's stats aggregate across shards.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("kv/%d", i)
		val := fmt.Sprintf("v%d", i)
		if _, err := cluster.Node(i%nodes).Propose(ctx, caesar.Put(key, []byte(val))); err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
		got, err := cluster.Node((i+1)%nodes).Propose(ctx, caesar.Get(key))
		if err != nil || string(got) != val {
			t.Fatalf("get %q = %q, %v; want %q", key, got, err, val)
		}
	}
	for n := 0; n < nodes; n++ {
		if st := cluster.Node(n).Stats(); st.Executed == 0 {
			t.Errorf("node %d reports zero executions across its shards", n)
		}
	}
}

// TestShardOfCoversAndIsStable pins the public routing contract: ShardOf
// spreads the keyspace over every shard and agrees with itself.
func TestShardOfCoversAndIsStable(t *testing.T) {
	const shards = 4
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("user/%d", i)
		s := caesar.ShardOf(key, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%q, %d) = %d", key, shards, s)
		}
		if caesar.ShardOf(key, shards) != s {
			t.Fatalf("ShardOf(%q) unstable", key)
		}
		seen[s] = true
	}
	if len(seen) != shards {
		t.Fatalf("200 keys covered only %d of %d shards", len(seen), shards)
	}
}

// TestShardedClusterCrashTolerance: every consensus group survives a node
// crash independently — writes on every shard still commit through the
// remaining majority.
func TestShardedClusterCrashTolerance(t *testing.T) {
	const shards = 4
	cluster, err := caesar.NewLocalCluster(5,
		caesar.WithShards(shards),
		caesar.WithNodeOptions(caesar.Options{
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectTimeout:    150 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// One key per shard written before the crash, overwritten after.
	keys := make([]string, shards)
	for s := range keys {
		for i := 0; keys[s] == ""; i++ {
			if k := fmt.Sprintf("crash/%d", i); caesar.ShardOf(k, shards) == s {
				keys[s] = k
			}
		}
		if _, err := cluster.Node(0).Propose(ctx, caesar.Put(keys[s], []byte("before"))); err != nil {
			t.Fatalf("pre-crash put on shard %d: %v", s, err)
		}
	}
	cluster.Crash(4)
	for s, key := range keys {
		if _, err := cluster.Node(s%4).Propose(ctx, caesar.Put(key, []byte("after"))); err != nil {
			t.Fatalf("shard %d did not survive the crash: %v", s, err)
		}
		got, err := cluster.Node((s+1)%4).Propose(ctx, caesar.Get(key))
		if err != nil || string(got) != "after" {
			t.Fatalf("shard %d post-crash read = %q, %v; want \"after\"", s, got, err)
		}
	}
}

// TestShardedClusterClosedNode pins the error path sharded nodes share
// with plain ones.
func TestShardedClusterClosedNode(t *testing.T) {
	cluster, err := caesar.NewLocalCluster(3, caesar.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Node(2).Close()
	if _, err := cluster.Node(2).Propose(context.Background(), caesar.Put("k", nil)); err != caesar.ErrClosed {
		t.Fatalf("propose on closed sharded node: %v, want ErrClosed", err)
	}
}

// TestCrossShardTransactionsThroughPublicAPI: multi-key transactions whose
// keys span consensus groups commit atomically under WithShards — the
// ErrCrossShard rejection is gone. Concurrent conflicting transfers from
// every node conserve the total on every replica.
func TestCrossShardTransactionsThroughPublicAPI(t *testing.T) {
	const nodes, shards = 3, 4
	cluster, err := caesar.NewLocalCluster(nodes, caesar.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// One account per shard, so every transfer between distinct accounts
	// spans two consensus groups.
	accounts := make([]string, shards)
	for s := range accounts {
		for i := 0; accounts[s] == ""; i++ {
			if k := fmt.Sprintf("acct/%d", i); caesar.ShardOf(k, shards) == s && !slices.Contains(accounts, k) {
				accounts[s] = k
			}
		}
	}
	const initial = 1000
	for _, k := range accounts {
		if _, err := cluster.Node(0).Propose(ctx, caesar.Add(k, initial)); err != nil {
			t.Fatalf("funding %q: %v", k, err)
		}
	}

	const transfersPerNode = 20
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			node := cluster.Node(n)
			for i := 0; i < transfersPerNode; i++ {
				from := accounts[(n+i)%len(accounts)]
				to := accounts[(n+i+1)%len(accounts)]
				if err := node.ProposeTx(ctx, []caesar.Command{
					caesar.Add(from, -3),
					caesar.Add(to, 3),
				}); err != nil {
					errs <- fmt.Errorf("node %d transfer %d: %w", n, i, err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The total is conserved, read through consensus from every node. A
	// transaction that has executed on its submitter may still be held in
	// a reading node's commit table (one group's piece delivered, the
	// other in flight), so reads taken during that window can straddle
	// it; retry until the sums converge.
	want := int64(initial * len(accounts))
	var total int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		total = 0
		for i, k := range accounts {
			val, err := cluster.Node(i%nodes).Propose(ctx, caesar.Get(k))
			if err != nil {
				t.Fatalf("get %q: %v", k, err)
			}
			total += caesar.DecodeInt(val)
		}
		if total == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("total = %d, want %d (cross-shard transfer lost or duplicated money)", total, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrossShardTxUnshardedFallback: ProposeTx on a one-group cluster (no
// WithShards) is an ordinary atomic batch — the same API works at every
// shard count.
func TestCrossShardTxUnshardedFallback(t *testing.T) {
	cluster, err := caesar.NewLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := cluster.Node(0).ProposeTx(ctx, []caesar.Command{
		caesar.Put("tx/a", []byte("1")),
		caesar.Put("tx/b", []byte("2")),
	}); err != nil {
		t.Fatalf("one-group ProposeTx: %v", err)
	}
	got, err := cluster.Node(1).Propose(ctx, caesar.Get("tx/b"))
	if err != nil || string(got) != "2" {
		t.Fatalf("get tx/b = %q, %v; want \"2\"", got, err)
	}
}
