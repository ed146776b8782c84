//go:build !race

package caesar

import (
	"runtime"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// heldCompletions is a deferred chain (no synchronous facet) that keeps
// every completion it is handed and completes none of them.
type heldCompletions struct{ held []protocol.Completion }

func (h *heldCompletions) ApplyDeferred(_ command.Command, _ timestamp.Timestamp, done protocol.Completion) {
	h.held = append(h.held, done)
}

// A delivery into a deferred chain hands the chain a slot of the replica's
// delivery chunk as its completion, not a closure: under 0.2 allocations
// per delivery, the delivered set included. (The race detector's
// instrumentation allocates, hence the build tag.)
func TestDeferredDeliveryAllocatesUnderOneCompletion(t *testing.T) {
	const runs = 1000
	r, _ := testReplica(0)
	chain := &heldCompletions{held: make([]protocol.Completion, 0, runs+1)}
	setApplier(r, chain)
	recs := make([]*record, runs+1) // AllocsPerRun runs once more to warm up
	for i := range recs {
		seq := uint64(i + 1)
		rec := r.hist.ensure(put(1, seq, "k"))
		rec.status, rec.ts = StatusStable, ts(seq, 1)
		recs[i] = rec
	}
	next := 0
	n := allocsPer(runs, func() { r.deliverNow(recs[next]); next++ })
	if len(chain.held) != runs+1 {
		t.Fatalf("the chain was handed %d deliveries, want %d", len(chain.held), runs+1)
	}
	t.Logf("%.3f allocations per delivery", n)
	if n >= 0.2 {
		t.Errorf("deliverNow into a deferred chain allocates %.3f per delivery, want under 0.2", n)
	}
}

// allocsPer is testing.AllocsPerRun without its rounding down to a whole
// allocation: the mean over runs calls of f, after one warm-up call.
func allocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// A GC flush sends each leader's acks, and the purges, in the slice they
// were gathered in, and starts the next batch sized for a quarter more:
// in steady state a flush costs each batch its message and at most one
// slice, not the log2(n) regrowths of a batch that starts empty.
func TestGCFlushSizesEachBatchOnce(t *testing.T) {
	// Self is outside the peer list, so every batch lands in the stub.
	ep := &stubEP{self: 5, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }), Config{HeartbeatInterval: -1})
	const perBatch = 100
	seq := uint64(0)
	flush := func() {
		for i := 0; i < perBatch; i++ {
			seq++
			for leader := 0; leader < r.n; leader++ {
				r.queueAck(command.ID{Node: timestamp.NodeID(leader), Seq: seq})
			}
			r.purgePending = append(r.purgePending, command.ID{Node: r.self, Seq: seq})
		}
		r.flushGC()
		ep.clear()
	}
	flush() // the first flush sizes every batch
	batches := r.n + 1
	n := testing.AllocsPerRun(20, flush)
	t.Logf("%.1f allocations per flush of %d batches", n, batches)
	if n > float64(2*batches) {
		t.Errorf("a flush of %d batches of %d IDs allocates %.1f times, want at most %d: one message and one slice per batch", batches, perBatch, n, 2*batches)
	}
}
