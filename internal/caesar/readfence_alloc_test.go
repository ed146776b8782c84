//go:build !race

package caesar

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/protocol"
)

// TestReadFenceUnblockedAllocatesNothing: a read fence allocates its waiter
// at the first blocking command, so one that the applied frontier already
// covers costs nothing on the event loop; one that parks costs the waiter.
// The loop drops the event's keys and completion once it has read them.
// (The race detector's instrumentation allocates, hence the build tag.)
func TestReadFenceUnblockedAllocatesNothing(t *testing.T) {
	r, _ := testReplica(2)
	keys, done := []string{"k"}, protocol.DoneFunc(func(protocol.Result) {})
	applied := r.hist.ensure(put(0, 1, "k"))
	r.hist.setTimestamp(applied, ts(5, 0))
	applied.applied = true
	e := &evReadFence{ts: ts(10, 0)}
	if n := testing.AllocsPerRun(100, func() {
		e.keys, e.done = keys, done
		r.onReadFence(e)
	}); n != 0 {
		t.Errorf("a fence over an applied frontier allocates %.0f, want 0", n)
	}
	if e.keys != nil || e.done != nil {
		t.Errorf("a handled fence event keeps keys %v and completion %v", e.keys, e.done)
	}

	blocker := r.hist.ensure(put(0, 2, "k"))
	r.hist.setTimestamp(blocker, ts(6, 0))
	if n := testing.AllocsPerRun(100, func() {
		e.keys, e.done = keys, done
		r.onReadFence(e)
		blocker.reads = blocker.reads[:0]
	}); n != 1 {
		t.Errorf("a fence parked behind one command allocates %.0f, want 1", n)
	}
}

// signal is a Completion a test reuses for every fence: it hands the
// result to a channel with room for one.
type signal chan error

func (s signal) Complete(res protocol.Result) { s <- res.Err }

// TestReadFenceAllocatesUnderOneEvent: a fence registered from another
// goroutine than the event loop posts a slot of the replica's chunk, so
// the round trip through a running loop costs under one allocation.
func TestReadFenceAllocatesUnderOneEvent(t *testing.T) {
	r, _ := testReplica(2)
	r.Start()
	defer r.Stop()
	keys, done := []string{"k"}, make(signal, 1)
	n := allocsPer(1000, func() {
		r.ReadFence(keys, r.ReadStamp(), done)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.3f allocations per fence", n)
	if n >= 1 {
		t.Errorf("a read fence allocates %.3f, want under 1", n)
	}
}
