//go:build !race

package caesar

import "testing"

// The race detector's instrumentation allocates, hence the build tag.
func TestConflictIndexAllocations(t *testing.T) {
	h := newHistory()
	rec := &record{cmd: put(1, 1, "fresh"), ts: ts(5, 1)}
	cycle := func() {
		h.index(rec)
		h.unindex(rec)
	}
	// A key nothing else holds: the one-element list, dropped on unindex
	// and kept as a spare, which the next index of the key reuses.
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("index+unindex on a fresh key: %v allocations, want 0", n)
	}
	// A key that holds records already: its list has room after the
	// first insert grew it.
	for seq := uint64(2); seq <= 4; seq++ {
		h.setTimestamp(h.ensure(put(0, seq, "fresh")), ts(2*seq, 0))
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("index+unindex on a held key: %v allocations, want 0", n)
	}
	// A key whose list emptied while its fence is above the floor: the
	// entry stays, and the key reuses it.
	purged := h.ensure(put(0, 9, "fenced"))
	h.setTimestamp(purged, ts(9, 0))
	h.purge(purged)
	rec.cmd = put(1, 1, "fenced")
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("index+unindex on a key held by its fence: %v allocations, want 0", n)
	}
}

// A new record is a slot of the history's chunk: ensure costs under one
// allocation per record, the index of records by ID and the open list
// included.
func TestEnsureAllocatesUnderOneRecord(t *testing.T) {
	h := newHistory()
	seq := uint64(0)
	if n := testing.AllocsPerRun(1000, func() { seq++; h.ensure(put(1, seq, "k")) }); n >= 1 {
		t.Errorf("ensure allocates %.2f per new record, want under 1", n)
	}
}

// A predecessor set is carved from the history's chunk of sets: at the
// conflict depth of BenchmarkPredecessors' middle row, 8, a set costs
// under one allocation. The set is the caller's, so every call carves a
// fresh one.
func TestPredecessorSetAllocatesUnderOne(t *testing.T) {
	const depth = 8
	h := newHistory()
	for i := 1; i <= depth; i++ {
		h.setTimestamp(h.ensure(put(0, uint64(i), "k")), ts(uint64(2*i), 0))
	}
	probe, at := put(1, 1, "k"), ts(uint64(2*depth+1), 1)
	n := allocsPer(1000, func() {
		if pred := h.predecessorsBelow(probe, at); len(pred) != depth {
			t.Fatalf("%d predecessors, want %d", len(pred), depth)
		}
	})
	t.Logf("%.3f allocations per set of %d", n, depth)
	if n >= 1 {
		t.Errorf("a predecessor set of %d allocates %.3f, want under 1", depth, n)
	}
}
