//go:build !race

package quorum

import "testing"

// A whole quorum-gathering phase — a fresh tracker, a vote from every node
// of a five-node cluster, a duplicate, the verdict — is plain arithmetic on
// a value. (The race detector's instrumentation allocates, hence the build
// tag.)
func TestTrackerPhaseDoesNotAllocate(t *testing.T) {
	reached := 0
	n := testing.AllocsPerRun(1000, func() {
		tr := NewTracker(FastSize(5))
		for v := int32(0); v < 5; v++ {
			tr.Add(v)
		}
		tr.Add(2)
		if tr.Reached() && tr.Count() == 5 {
			reached++
		}
	})
	if n != 0 || reached == 0 {
		t.Fatalf("a phase allocates %.1f (reached %d times), want 0", n, reached)
	}
}
