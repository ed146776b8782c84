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

// TestChunksHoldAtMostMaxBytes: a small type comes Size to a chunk, a
// large one as many as fit in maxBytes, and one larger still alone.
func TestChunksHoldAtMostMaxBytes(t *testing.T) {
	check := func(name string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d values per chunk, want %d", name, got, want)
		}
	}
	check("struct{}", perChunk[struct{}](), Size)
	check("int", perChunk[int](), Size)
	check("[128]byte", perChunk[[128]byte](), Size)
	check("[392]byte", perChunk[[392]byte](), 5)
	check("[4096]byte", perChunk[[4096]byte](), 1)
	// Next allocates what perChunk says: the fifth of five 392-byte
	// values leaves the chunk empty.
	var c Of[[392]byte]
	for i := 0; i < 5; i++ {
		c.Next()
	}
	if len(c.free) != 0 {
		t.Errorf("after 5 values of 392 bytes, %d slots left in the chunk, want 0", len(c.free))
	}
}
