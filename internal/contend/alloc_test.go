//go:build !race

package contend

import (
	"strconv"
	"testing"
)

// A full sketch admits a never-seen key by eviction, into the evicted
// entry: once per proposal per acceptor on never-repeating keys, so it
// must not allocate. (The race detector's instrumentation allocates,
// hence the build tag.)
func TestAdmissionByEvictionDoesNotAllocate(t *testing.T) {
	const runs = 1000
	g := NewProfile(8).Group(0)
	keys := make([]string, 8+runs+1)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	for _, k := range keys[:8] {
		g.Touch(k)
	}
	next := 8
	if n := testing.AllocsPerRun(runs, func() { g.Touch(keys[next]); next++ }); n != 0 {
		t.Fatalf("Touch of a fresh key on a full sketch allocates %.2f, want 0", n)
	}
}
