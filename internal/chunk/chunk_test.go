package chunk

import (
	"math"
	"runtime"
	"testing"
)

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

// Pointerful stand-ins for the chunked types, at their sizes on amd64: a
// pointerful object over 512 bytes carries the 8-byte malloc header.
type (
	ptrs24  struct{ _ [3]*byte }  // shard.Envelope
	ptrs56  struct{ _ [7]*byte }  // caesar.evReadFence
	ptrs72  struct{ _ [9]*byte }  // caesar.FastProposeReply
	ptrs80  struct{ _ [10]*byte } // caesar.delivery
	ptrs128 struct{ _ [16]*byte } // protocol.Submission
	ptrs168 struct{ _ [21]*byte } // caesar.Stable
	ptrs176 struct{ _ [22]*byte } // caesar.FastPropose
	ptrs344 struct{ _ [43]*byte } // caesar.coordinator
	ptrs392 struct{ _ [49]*byte } // caesar.record
)

// sink keeps what a measurement allocated reachable.
var sink any

// Measuring allocations: rounds of perRound calls, each into storage of
// its own made beforehand.
const (
	rounds   = 5
	perRound = 256
)

// allocated returns the bytes one call of alloc(i) takes, as
// runtime.MemStats counts them: the size class, malloc header included.
// What the runtime allocates meanwhile only adds, so it is the least of
// the rounds' averages.
func allocated(alloc func(i int)) uint64 {
	least := uint64(math.MaxUint64)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := r * perRound; i < (r+1)*perRound; i++ {
			alloc(i)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/perRound)
	}
	return least
}

// checkChunk compares one chunk of T with make([]T, perChunk): the same
// bytes, and at least as many slots (want, as the package comment's table
// lists).
// The race detector's build allocates Next's chunk twice, so it checks
// the slots only.
func checkChunk[T any](t *testing.T, name string, want int) {
	t.Helper()
	chunks := make([]Of[T], rounds*perRound)
	bytes := allocated(func(i int) { chunks[i].Next() })
	slots := len(chunks[0].free) + 1
	made := make([][]T, rounds*perRound)
	before := allocated(func(i int) { made[i] = make([]T, perChunk[T]()) })
	sink = [2]any{chunks, made}
	if bytes != before && !raceEnabled {
		t.Errorf("%s: a chunk takes %d bytes, make([]T, %d) %d", name, bytes, perChunk[T](), before)
	}
	if slots < perChunk[T]() || slots != want {
		t.Errorf("%s: %d slots per chunk, want %d (at least %d)", name, slots, want, perChunk[T]())
	}
}

// TestChunksHoldAtMostMaxBytes: a chunk asks for Size values of a small
// type, as many as fit in maxBytes of a large one, and one larger still
// alone; it takes exactly the bytes that request takes, and hands out
// every slot the size class holds. The slot counts are go1.24's (amd64).
func TestChunksHoldAtMostMaxBytes(t *testing.T) {
	check := func(name string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d values asked per chunk, want %d", name, got, want)
		}
	}
	check("struct{}", perChunk[struct{}](), Size)
	check("int", perChunk[int](), Size)
	check("[128]byte", perChunk[[128]byte](), Size)
	check("[392]byte", perChunk[[392]byte](), 5)
	check("[4096]byte", perChunk[[4096]byte](), 1)

	checkChunk[struct{}](t, "struct{}", Size)
	checkChunk[int](t, "int", Size)
	checkChunk[[128]byte](t, "[128]byte", Size) // exactly the 2,048-byte class
	checkChunk[[4096]byte](t, "[4096]byte", 1)
	checkChunk[ptrs24](t, "24-byte", 16)
	checkChunk[ptrs56](t, "56-byte", 18)
	checkChunk[ptrs72](t, "72-byte", 17)
	checkChunk[ptrs80](t, "80-byte", 17)
	checkChunk[ptrs128](t, "128-byte", 17)
	checkChunk[ptrs168](t, "168-byte", 12)
	checkChunk[ptrs176](t, "176-byte", 11)
	checkChunk[ptrs344](t, "344-byte", 5)
	checkChunk[ptrs392](t, "392-byte", 5)
}

// id stands in for command.ID, the element the wire decoder and the
// CAESAR history carve ID sets of: 16 bytes, no pointers.
type id struct {
	node int32
	seq  uint64
}

// TestCarvedSlicesNeverOverlap: over more than two chunks, every slice is
// zeroed and its own, its capacity is its length (an append reallocates
// and leaves its neighbour alone), an empty one is nil, and one longer
// than a quarter chunk is allocated alone, leaving the chunk's tail as it
// was.
func TestCarvedSlicesNeverOverlap(t *testing.T) {
	per := perSlice[id]()
	if per != maxBytes/16 {
		t.Fatalf("%d IDs per chunk, want %d", per, maxBytes/16)
	}
	var c Slices[id]
	if s := c.Make(0); s != nil {
		t.Fatalf("Make(0) = %v, want nil", s)
	}
	var got [][]id
	seq := uint64(0)
	for carved := 0; carved < 2*per+1; {
		n := len(got)%(per/4) + 1
		s := c.Make(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Make(%d): len %d cap %d, want both %d", n, len(s), cap(s), n)
		}
		for i := range s {
			if s[i] != (id{}) {
				t.Fatalf("slice %d handed out holding %v", len(got), s[i])
			}
			seq++
			s[i] = id{node: int32(len(got)), seq: seq}
		}
		got = append(got, s)
		carved += n
	}
	seq = 0
	for k, s := range got {
		for i := range s {
			seq++
			if s[i] != (id{node: int32(k), seq: seq}) {
				t.Fatalf("slice %d element %d now holds %v: another slice wrote it", k, i, s[i])
			}
		}
	}

	first, second := got[0], got[1]
	grown := append(first, id{seq: 1 << 40})
	if &grown[0] == &first[0] {
		t.Fatal("an append to a carved slice kept its array")
	}
	if second[0] != (id{node: 1, seq: 2}) {
		t.Fatalf("an append to slice 0 wrote into slice 1: %v", second[0])
	}

	tail := len(c.free)
	long := c.Make(per/4 + 1)
	if len(c.free) != tail || cap(long) != per/4+1 {
		t.Fatalf("a %d-element slice was carved from the chunk (tail %d -> %d)", per/4+1, tail, len(c.free))
	}
	want := tail - 1
	if tail == 0 {
		want = per - 1 // a fresh chunk
	}
	if c.Make(1); len(c.free) != want {
		t.Fatalf("a 1-element slice left a tail of %d, want %d", len(c.free), want)
	}
}
