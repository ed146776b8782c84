package shard

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestRouterMatchesStdlibFNV pins the inlined hash to hash/fnv's FNV-1a:
// routing must not move a single key when the per-call allocation was
// optimized away.
func TestRouterMatchesStdlibFNV(t *testing.T) {
	r := NewRouter(7)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d-%s", i, string(rune('a'+i%26)))
		h := fnv.New64a()
		h.Write([]byte(key))
		want := jump(h.Sum64(), 7)
		if got := r.Shard(key); got != want {
			t.Fatalf("Shard(%q) = %d, stdlib FNV-1a jump = %d", key, got, want)
		}
	}
}

// TestRouterShardZeroAllocs proves the submission hot path no longer
// allocates: the stdlib hasher forced one heap allocation per call.
func TestRouterShardZeroAllocs(t *testing.T) {
	r := NewRouter(8)
	keys := []string{"a", "user/123456", "counter/7", "some-much-longer-key-name/with/segments"}
	allocs := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			_ = r.Shard(k)
		}
	})
	if allocs != 0 {
		t.Fatalf("Router.Shard allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkRouterShard measures the per-submission routing cost; run with
// -benchmem to see the 0 allocs/op the inline FNV-1a loop buys.
func BenchmarkRouterShard(b *testing.B) {
	r := NewRouter(8)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("user/%d/profile", i*7919)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Shard(keys[i%len(keys)])
	}
}

// TestRouterEpochs checks the epoch plumbing: the epoch tags the router
// without influencing the key map, and the zero value is epoch 0.
func TestRouterEpochs(t *testing.T) {
	r0 := NewRouter(4)
	r7 := NewRouterAt(7, 4)
	if r0.Epoch() != 0 || r7.Epoch() != 7 {
		t.Fatalf("epochs = %d, %d; want 0, 7", r0.Epoch(), r7.Epoch())
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		if r0.Shard(k) != r7.Shard(k) {
			t.Fatalf("epoch changed the key map for %q", k)
		}
	}
}

// TestRouterShrinkMovesOnlyRetiredKeys is the jump-hash property a shrink
// handoff relies on: going G → G' (G' < G) relocates exactly the keys
// homed in the retired groups.
func TestRouterShrinkMovesOnlyRetiredKeys(t *testing.T) {
	big, small := NewRouter(5), NewRouter(3)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%d", i)
		b, s := big.Shard(k), small.Shard(k)
		if b < 3 && b != s {
			t.Fatalf("key %q moved %d→%d though its group survives the shrink", k, b, s)
		}
	}
}
