package chunk

import "testing"

// TestSlotsAreNeverReused: over more than two chunks, every value handed
// out is zeroed, its own, and keeps what was written to it.
func TestSlotsAreNeverReused(t *testing.T) {
	const n = 2*Size + 1
	var c Of[int]
	got := make([]*int, n)
	for i := range got {
		got[i] = c.Next()
		if *got[i] != 0 {
			t.Fatalf("value %d handed out holding %d", i, *got[i])
		}
		*got[i] = i + 1
	}
	for i, p := range got {
		if *p != i+1 {
			t.Fatalf("value %d now holds %d, was written %d", i, *p, i+1)
		}
	}
}
