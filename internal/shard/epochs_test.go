package shard

import "testing"

// TestEpochs checks the routing-epoch history: first install wins, past
// epochs' routers are rebuilt after several resizes, and attribution is a
// pure function of (key, epoch).
func TestEpochs(t *testing.T) {
	e := NewEpochs()
	if g := e.GroupOf("k", 0); g != 0 {
		t.Errorf("unknown epoch attributed to group %d, want 0", g)
	}
	if _, ok := e.RouterAt(0); ok {
		t.Error("RouterAt(0) answered before any install")
	}
	e.Install(0, 2)
	e.Install(1, 4)
	e.Install(2, 8)
	e.Install(1, 999) // installs are first-write-wins per epoch
	if n := e.Shards(1); n != 4 {
		t.Errorf("Shards(1) = %d, want 4 (re-install must not overwrite)", n)
	}
	for epoch, want := range map[uint32]int{0: 2, 1: 4, 2: 8} {
		r, ok := e.RouterAt(epoch)
		if !ok || r.Shards() != want || r.Epoch() != epoch {
			t.Errorf("RouterAt(%d) = %d shards at epoch %d (%v), want %d at %d",
				epoch, r.Shards(), r.Epoch(), ok, want, epoch)
		}
	}
	if _, ok := e.RouterAt(99); ok {
		t.Error("RouterAt(99) answered for an epoch never installed")
	}
	for _, key := range []string{"a", "b", "c", "hello"} {
		g := e.GroupOf(key, 2)
		if g != e.GroupOf(key, 2) {
			t.Fatalf("GroupOf(%q, 2) unstable", key)
		}
		if want := NewRouterAt(2, 8).Shard(key); int(g) != want {
			t.Errorf("GroupOf(%q, 2) = %d, want the epoch-2 router's %d", key, g, want)
		}
	}
}
