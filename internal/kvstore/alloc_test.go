//go:build !race

package kvstore

import (
	"runtime"
	"strconv"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// A key's first write takes its entry from the store's chunk: under 0.1
// allocations per new key, the map's growth included. (The race
// detector's instrumentation allocates, hence the build tag.)
func TestFirstWriteAllocatesUnderOneEntry(t *testing.T) {
	const runs = 1000
	s := New()
	cmds := make([]command.Command, runs+1) // AllocsPerRun runs once more to warm up
	for i := range cmds {
		cmds[i] = command.Put("key-"+strconv.Itoa(i), []byte("v"))
	}
	next := 0
	n := allocsPer(runs, func() { s.ApplyAt(cmds[next], timestamp.Zero); next++ })
	if s.Len() != runs+1 {
		t.Fatalf("store holds %d keys, want %d", s.Len(), runs+1)
	}
	t.Logf("%.3f allocations per new key", n)
	if n >= 0.1 {
		t.Errorf("a first write allocates %.3f per new key, want under 0.1", n)
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

// Import into an empty store sizes its map once, copies every value into
// one buffer and takes the entries from chunks: 1,000 keys cost under 100
// allocations, not two or more per key.
func TestImportAllocations(t *testing.T) {
	snap := make(map[string][]byte, 1000)
	for i := 0; i < 1000; i++ {
		snap["key-"+strconv.Itoa(i)] = []byte(strconv.Itoa(i))
	}
	var s *Store
	n := testing.AllocsPerRun(10, func() { s = New(); s.Import(snap) })
	if s.Len() != len(snap) {
		t.Fatalf("store holds %d keys, want %d", s.Len(), len(snap))
	}
	t.Logf("%.0f allocations for %d keys", n, len(snap))
	if n >= 100 {
		t.Errorf("New and Import of %d keys allocate %.0f times, want under 100", len(snap), n)
	}
}
