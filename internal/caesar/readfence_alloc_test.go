//go:build !race

package caesar

import "testing"

// TestReadFenceUnblockedAllocatesNothing: a read fence allocates its waiter
// at the first blocking command, so one that the applied frontier already
// covers costs nothing on the event loop; one that parks costs the waiter.
// (The race detector's instrumentation allocates, hence the build tag.)
func TestReadFenceUnblockedAllocatesNothing(t *testing.T) {
	r, _ := testReplica(2)
	done := func(error) {}
	applied := r.hist.ensure(put(0, 1, "k"))
	r.hist.setTimestamp(applied, ts(5, 0))
	applied.applied = true
	e := evReadFence{keys: []string{"k"}, ts: ts(10, 0), done: done}
	if n := testing.AllocsPerRun(100, func() { r.onReadFence(e) }); n != 0 {
		t.Errorf("a fence over an applied frontier allocates %.0f, want 0", n)
	}

	blocker := r.hist.ensure(put(0, 2, "k"))
	r.hist.setTimestamp(blocker, ts(6, 0))
	if n := testing.AllocsPerRun(100, func() {
		r.onReadFence(e)
		blocker.reads = blocker.reads[:0]
	}); n != 1 {
		t.Errorf("a fence parked behind one command allocates %.0f, want 1", n)
	}
}
