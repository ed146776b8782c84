package shard

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/transport"
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

// epochRecorder records submitted commands per group.
type epochRecorder struct {
	group int
	got   chan command.Command
}

func (e *epochRecorder) Submit(cmd command.Command, done protocol.DoneFunc) {
	e.got <- cmd
	if done != nil {
		done(protocol.Result{})
	}
}
func (e *epochRecorder) Start() {}
func (e *epochRecorder) Stop()  {}

// TestEngineStampsRoutingEpoch checks that submissions carry the epoch of
// the router that placed them — the tag replicas use to spot commands
// routed under an outdated epoch after a resize.
func TestEngineStampsRoutingEpoch(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 1})
	defer net.Close()
	got := make(chan command.Command, 8)
	e := NewAt(net.Endpoint(0), make([]int32, 2), func(g int, ep transport.Endpoint) protocol.Engine {
		return &epochRecorder{group: g, got: got}
	})
	e.Submit(command.Put("k", nil), nil)
	if cmd := <-got; cmd.Epoch != 0 {
		t.Fatalf("epoch-0 submission stamped %d", cmd.Epoch)
	}
	e.SetRouter(NewRouterAt(3, 2))
	e.Submit(command.Put("k", nil), nil)
	if cmd := <-got; cmd.Epoch != 3 {
		t.Fatalf("epoch-3 submission stamped %d", cmd.Epoch)
	}
}

// TestEngineEnsureAndRetireGroups exercises the dynamic group set: growth
// builds and starts new groups, SubmitTo reaches them, RetireFrom stops
// them and reports ErrNoGroup, and a revival gets a fresh instance.
func TestEngineEnsureAndRetireGroups(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 1})
	defer net.Close()
	got := make(chan command.Command, 8)
	var builds int
	e := NewAt(net.Endpoint(0), make([]int32, 2), func(g int, ep transport.Endpoint) protocol.Engine {
		builds++
		return &epochRecorder{group: g, got: got}
	})
	e.Start()
	defer e.Stop()
	if builds != 2 || e.Shards() != 2 {
		t.Fatalf("construction built %d groups over %d slots", builds, e.Shards())
	}
	if err := e.EnsureGroups(4, 1); err != nil {
		t.Fatalf("EnsureGroups: %v", err)
	}
	if builds != 4 || e.Shards() != 4 || e.LiveShards() != 4 {
		t.Fatalf("after growth: %d builds, %d slots, %d live", builds, e.Shards(), e.LiveShards())
	}
	e.SubmitTo(3, command.Put("x", nil), nil)
	if cmd := <-got; cmd.Key != "x" {
		t.Fatalf("new group got %v", cmd)
	}

	e.RetireFrom(2)
	if e.LiveShards() != 2 {
		t.Fatalf("after retire: %d live groups, want 2", e.LiveShards())
	}
	errc := make(chan error, 1)
	e.SubmitTo(3, command.Put("y", nil), func(res protocol.Result) { errc <- res.Err })
	if err := <-errc; err != ErrNoGroup {
		t.Fatalf("SubmitTo(retired) err = %v, want ErrNoGroup", err)
	}

	if err := e.EnsureGroups(4, 2); err != nil {
		t.Fatalf("revival: %v", err)
	}
	if builds != 6 || e.LiveShards() != 4 {
		t.Fatalf("revival reused a dead instance: %d builds, %d live", builds, e.LiveShards())
	}
}
