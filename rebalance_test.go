package caesar_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	caesar "github.com/caesar-consensus/caesar"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// TestResizeQuiescent grows and shrinks a quiet cluster and checks that
// every key stays readable through consensus from every node afterwards
// — with the background state auditor running across both epoch
// transitions, which must prove equality and never a false divergence.
func TestResizeQuiescent(t *testing.T) {
	var fp falsePositives
	cluster, err := caesar.NewLocalCluster(3, caesar.WithShards(2),
		caesar.WithAuditInterval(auditEvery),
		caesar.WithNodeOptions(fp.guard(caesar.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const keys = 40
	for i := 0; i < keys; i++ {
		if _, err := cluster.Node(i%3).Propose(ctx, caesar.Put(key(i), []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	if err := cluster.Node(0).Resize(ctx, 4); err != nil {
		t.Fatalf("resize 2→4: %v", err)
	}
	if got := cluster.Node(0).Shards(); got != 4 {
		t.Fatalf("shards after grow = %d, want 4", got)
	}
	checkAllKeys(ctx, t, cluster, keys, "after grow")

	// Write under the new epoch, then shrink back.
	for i := 0; i < keys; i++ {
		if _, err := cluster.Node(i%3).Propose(ctx, caesar.Put(key(i), []byte(fmt.Sprintf("w%d", i)))); err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
	}
	if err := cluster.Node(1).Resize(ctx, 2); err != nil {
		t.Fatalf("resize 4→2: %v", err)
	}
	for i := 0; i < keys; i++ {
		v, err := cluster.Node(i%3).Propose(ctx, caesar.Get(key(i)))
		if err != nil {
			t.Fatalf("get %d after shrink: %v", i, err)
		}
		if string(v) != fmt.Sprintf("w%d", i) {
			t.Fatalf("key %d after shrink = %q, want %q", i, v, fmt.Sprintf("w%d", i))
		}
	}
	requireCleanAudit(t, cluster, &fp)
}

func key(i int) string { return fmt.Sprintf("user/%d", i) }

func checkAllKeys(ctx context.Context, t *testing.T, cluster *caesar.Cluster, keys int, when string) {
	t.Helper()
	for i := 0; i < keys; i++ {
		v, err := cluster.Node(i%3).Propose(ctx, caesar.Get(key(i)))
		if err != nil {
			t.Fatalf("get %d %s: %v", i, when, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d %s = %q, want %q", i, when, v, fmt.Sprintf("v%d", i))
		}
	}
}

// TestResizeUnderLoad fires a mid-stream grow while concurrent clients
// increment disjoint counters and run cross-group transfer transactions
// that straddle the marker, then asserts conformance on every replica: no
// increment lost or duplicated (counter totals match the acknowledged
// count exactly) and transfers atomic (the transfer invariant holds).
func TestResizeUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("resize-under-load conformance is a long test")
	}
	testResizeUnderLoad(t, 2, 4)
}

// TestShrinkUnderLoad is the 4→2 variant.
func TestShrinkUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("resize-under-load conformance is a long test")
	}
	testResizeUnderLoad(t, 4, 2)
}

// TestResizeFromOneGroupUnderLoad: a cluster built without WithShards is
// the same node at one group, so it grows 1→3 and shrinks back 3→1 under
// the same load and checks as any other.
func TestResizeFromOneGroupUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("resize-under-load conformance is a long test")
	}
	testResizeUnderLoad(t, 1, 3, 1)
}

// testResizeUnderLoad builds a cluster of from groups — with no WithShards
// when from is 1, the default — and resizes it through steps while the
// load runs.
func testResizeUnderLoad(t *testing.T, from int, steps ...int) {
	var fp falsePositives
	opts := []caesar.ClusterOption{
		caesar.WithAuditInterval(auditEvery),
		caesar.WithNodeOptions(fp.guard(caesar.Options{})),
	}
	if from != 1 {
		opts = append(opts, caesar.WithShards(from))
	}
	cluster, err := caesar.NewLocalCluster(3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const (
		counters  = 24 // spread over every group of both epochs
		workers   = 12
		transfers = 6 // transfer-pair workers
	)
	var (
		acked [counters]int64 // acknowledged increments per counter
		txOK  atomic.Int64
		stop  atomic.Bool
		wg    sync.WaitGroup
	)

	// Increment workers: each hammers its own counter through a fixed
	// node; every acknowledged Add must survive the resize exactly once.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := cluster.Node(w % 3)
			c := w % counters
			for !stop.Load() {
				if _, err := node.Propose(ctx, caesar.Add(cnt(c), 1)); err == nil {
					atomic.AddInt64(&acked[c], 1)
				}
			}
		}(w)
	}
	// Transfer workers: two-key transactions crossing groups; the sum of
	// each pair must stay zero on every replica whatever epoch each piece
	// landed in.
	for w := 0; w < transfers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := cluster.Node(w % 3)
			a, b := pair(w)
			for !stop.Load() {
				err := node.ProposeTx(ctx, []caesar.Command{
					caesar.Add(a, 1),
					caesar.Add(b, -1),
				})
				if err == nil {
					txOK.Add(1)
				} else if !errors.Is(err, caesar.ErrTxAborted) && ctx.Err() == nil {
					// Unknown-outcome errors would break exact
					// accounting; with no crashes in this test they
					// should not occur.
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond)
	to := from
	for i, next := range steps {
		if err := cluster.Node(i%3).Resize(ctx, next); err != nil {
			t.Fatalf("resize %d→%d: %v", to, next, err)
		}
		to = next
		time.Sleep(300 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: a consensus read per counter per node flushes deliveries,
	// then replicas must agree exactly.
	for c := 0; c < counters; c++ {
		want := atomic.LoadInt64(&acked[c])
		for n := 0; n < 3; n++ {
			v, err := cluster.Node(n).Propose(ctx, caesar.Get(cnt(c)))
			if err != nil {
				t.Fatalf("get counter %d on node %d: %v", c, n, err)
			}
			if got := caesar.DecodeInt(v); got != want {
				t.Fatalf("counter %d on node %d = %d, want %d (lost or duplicated increment across resize)", c, n, got, want)
			}
		}
	}
	var sum int64
	for w := 0; w < transfers; w++ {
		a, b := pair(w)
		for n := 0; n < 3; n++ {
			va, err := cluster.Node(n).Propose(ctx, caesar.Get(a))
			if err != nil {
				t.Fatal(err)
			}
			vb, err := cluster.Node(n).Propose(ctx, caesar.Get(b))
			if err != nil {
				t.Fatal(err)
			}
			sum += caesar.DecodeInt(va) + caesar.DecodeInt(vb)
		}
	}
	if sum != 0 {
		t.Fatalf("transfer invariant broken across resize: residue %d (a transaction straddling the marker applied partially)", sum)
	}
	if txOK.Load() == 0 {
		t.Log("warning: no transfer committed during the window")
	}
	if got := cluster.Node(2).Shards(); got != to {
		t.Fatalf("shards = %d, want %d", got, to)
	}
	requireCleanAudit(t, cluster, &fp)
}

func cnt(i int) string { return fmt.Sprintf("counter/%d", i) }

func pair(w int) (string, string) {
	return fmt.Sprintf("acct/a%d", w), fmt.Sprintf("acct/b%d", w)
}

// TestGroupCountAboveMuxBound: a group count above the most a node runs
// (shard.MaxGroups) is refused where it enters — at construction, and by
// a resize, before its fence is ordered — instead of panicking every
// replica's mux when the groups are attached; the cluster keeps serving.
func TestGroupCountAboveMuxBound(t *testing.T) {
	if c, err := caesar.NewLocalCluster(3, caesar.WithShards(shard.MaxGroups+1)); err == nil {
		c.Close()
		t.Fatalf("NewLocalCluster built %d groups per node", shard.MaxGroups+1)
	}
	cluster, err := caesar.NewLocalCluster(3, caesar.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.Node(0).Resize(ctx, shard.MaxGroups+1); err == nil {
		t.Fatalf("Resize to %d groups accepted", shard.MaxGroups+1)
	}
	for i := 0; i < 3; i++ {
		if _, err := cluster.Node(i).Propose(ctx, caesar.Put(key(i), []byte("after"))); err != nil {
			t.Fatalf("node %d after the refused resize: %v", i, err)
		}
		if got := cluster.Node(i).Shards(); got != 2 {
			t.Fatalf("node %d runs %d groups, want 2", i, got)
		}
	}
}
