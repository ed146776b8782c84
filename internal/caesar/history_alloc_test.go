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
	// A key nothing else holds: the one-element list, dropped on unindex.
	if n := testing.AllocsPerRun(1000, cycle); n > 1 {
		t.Errorf("index+unindex on a fresh key: %v allocations, want at most 1", n)
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
