package idset

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func id(node int32, seq uint64) command.ID {
	return command.ID{Node: timestamp.NodeID(node), Seq: seq}
}

func TestAddHas(t *testing.T) {
	s := New()
	if s.Has(id(0, 1)) {
		t.Fatal("empty set has member")
	}
	if !s.Add(id(0, 1)) || s.Add(id(0, 1)) {
		t.Fatal("Add return values wrong")
	}
	if !s.Has(id(0, 1)) || s.Has(id(0, 2)) || s.Has(id(1, 1)) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestWatermarkCompaction(t *testing.T) {
	s := New()
	// Out-of-order inserts: 3, 1, 2 — after 2, the runs [1,1] and [3,3]
	// must merge into one.
	s.Add(id(0, 3))
	s.Add(id(0, 1))
	if s.Runs(0) != 2 {
		t.Fatalf("%d runs for {1, 3}, want 2", s.Runs(0))
	}
	s.Add(id(0, 2))
	if got := s.runsOf(0); len(got) != 1 || got[0] != (run{1, 3}) {
		t.Fatalf("runs = %v, want [{1 3}]", got)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if !s.Has(id(0, seq)) {
			t.Fatalf("lost seq %d", seq)
		}
	}
}

// TestGapCostsOneRun: a restarted proposer resumes far above its last
// sequence; every later ID extends one new run instead of sitting in an
// overflow set of its own.
func TestGapCostsOneRun(t *testing.T) {
	s := New()
	for seq := uint64(1); seq <= 50; seq++ {
		s.Add(id(1, seq))
	}
	for seq := uint64(4097); seq < 4097+5000; seq++ {
		s.Add(id(1, seq))
	}
	if s.Runs(1) != 2 || s.Len() != 5050 {
		t.Fatalf("%d runs, Len %d; want 2 runs, Len 5050", s.Runs(1), s.Len())
	}
	if s.Has(id(1, 51)) || s.Has(id(1, 4096)) || !s.Has(id(1, 4097)) || !s.Has(id(1, 9096)) || s.Has(id(1, 9097)) {
		t.Fatal("membership wrong around the gap")
	}
	if n := len(s.AppendTo(nil)); n > 12 {
		t.Fatalf("two runs encode to %d bytes", n)
	}
}

// TestSequenceZeroAndTop: the ends of the sequence space are members like
// any other — no watermark makes 0 implicit, and the top does not wrap.
func TestSequenceZeroAndTop(t *testing.T) {
	s := New()
	if s.Has(id(0, 0)) {
		t.Fatal("an empty set has sequence 0")
	}
	top := uint64(math.MaxUint64)
	for _, seq := range []uint64{top, 0, top - 1, 1} {
		if !s.Add(id(0, seq)) {
			t.Fatalf("Add(%d) reported a duplicate", seq)
		}
	}
	if s.Runs(0) != 2 || s.Len() != 4 || s.Has(id(0, 2)) || !s.Has(id(0, top)) {
		t.Fatalf("runs %v, Len %d", s.runsOf(0), s.Len())
	}
	b := s.AppendTo(nil)
	r := codec.NewReader(b)
	if got := Read(&r); r.End() != nil || got.Len() != 4 || !bytes.Equal(got.AppendTo(nil), b) {
		t.Fatalf("%x did not read back (%v)", b, r.Err())
	}
}

// Property: the set behaves exactly like a map regardless of insertion
// order.
func TestEquivalentToMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := make(map[command.ID]bool)
		for i := 0; i < 500; i++ {
			x := id(int32(rng.Intn(4)), uint64(rng.Intn(80)+1))
			added := s.Add(x)
			if added == ref[x] {
				return false // Add must report novelty correctly
			}
			ref[x] = true
		}
		if int(s.Len()) != len(ref) {
			return false
		}
		for x := range ref {
			if !s.Has(x) {
				return false
			}
		}
		// Negative probes.
		for i := 0; i < 100; i++ {
			x := id(int32(rng.Intn(4)), uint64(rng.Intn(200)+1))
			if s.Has(x) != ref[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomSet is TestEquivalentToMap's set: 500 adds of random IDs over four
// nodes, mostly out of order.
func randomSet(rng *rand.Rand) (*Set, map[command.ID]bool) {
	s, ref := New(), make(map[command.ID]bool)
	for i := 0; i < 500; i++ {
		x := id(int32(rng.Intn(4)), uint64(rng.Intn(80)+1))
		s.Add(x)
		ref[x] = true
	}
	return s, ref
}

// TestEncodeRoundTrip: a set read back has the members it was written
// with, its Len recomputed from them, and writes the same bytes again.
func TestEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		s, ref := randomSet(rng)
		// A node whose members start above 1, with a gap between them.
		for _, seq := range []uint64{3, 9} {
			s.Add(id(-7, seq))
			ref[id(-7, seq)] = true
		}
		b := s.AppendTo(nil)
		r := codec.NewReader(b)
		got := Read(&r)
		if err := r.End(); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if got.Len() != int64(len(ref)) {
			t.Fatalf("set %d: Len %d, want %d", i, got.Len(), len(ref))
		}
		for node := int32(-7); node < 4; node++ {
			for seq := uint64(1); seq <= 100; seq++ {
				if got.Has(id(node, seq)) != ref[id(node, seq)] {
					t.Fatalf("set %d: Has(%d.%d) = %v after the round trip", i, node, seq, !ref[id(node, seq)])
				}
			}
		}
		if again := got.AppendTo(nil); !bytes.Equal(again, b) {
			t.Fatalf("set %d: wrote\n %x, read back and wrote\n %x", i, b, again)
		}
	}
}

// TestReadRefusesAllButTheCanonicalForm: a node listed twice or out of
// order, a node with no runs, a bound past the sequence space or more
// members than Len can count would make Len count a member twice, not at
// all, or wrongly.
func TestReadRefusesAllButTheCanonicalForm(t *testing.T) {
	const top = math.MaxUint64
	for name, fields := range map[string][]uint64{
		"node twice":             {2, 1, 1, 0, 0, 1, 1, 0, 0},
		"nodes descending":       {2, 2, 1, 0, 0, 1, 1, 0, 0},
		"no runs":                {2, 1, 0, 2, 1, 1 << 21, 0},
		"nodes beyond the bytes": {3, 1, 1, 0, 0},
		"truncated run":          {1, 1, 1, 0},
		"run wraps":              {1, 1, 1, top, 1},
		"next run cannot start":  {1, 1, 2, top - 1, 1, 0, 0},
		"next run wraps":         {1, 1, 2, 0, 0, top, 0},
		"more than Len counts":   {1, 1, 1, 0, math.MaxInt64},
		"two nodes overflow Len": {2, 1, 1, 0, 1 << 62, 2, 1, 0, 1 << 62},
	} {
		var b []byte
		for _, f := range fields {
			b = codec.AppendUvarint(b, f)
		}
		r := codec.NewReader(b)
		if s := Read(&r); r.Err() == nil || s.Len() != 0 {
			t.Errorf("%s: %x read cleanly (Len %d)", name, b, s.Len())
		}
	}
}

// TestCloneSharesNothing: adding to a clone, in order and out of order,
// leaves the original as it was.
func TestCloneSharesNothing(t *testing.T) {
	s, ref := randomSet(rand.New(rand.NewSource(2)))
	before := s.AppendTo(nil)
	c := s.Clone()
	if !bytes.Equal(c.AppendTo(nil), before) || c.Len() != s.Len() {
		t.Fatal("the clone differs from its original")
	}
	for node := int32(0); node < 4; node++ {
		for seq := uint64(1); seq <= 200; seq += 3 {
			c.Add(id(node, seq))
		}
	}
	if !bytes.Equal(s.AppendTo(nil), before) || s.Len() != int64(len(ref)) {
		t.Fatal("adding to the clone changed the original")
	}
}

func TestMemoryStaysCompactInOrder(t *testing.T) {
	s := New()
	for seq := uint64(1); seq <= 100000; seq++ {
		s.Add(id(2, seq))
	}
	if s.Runs(2) != 1 {
		t.Fatalf("in-order adds left %d runs", s.Runs(2))
	}
	next := uint64(100001)
	if allocs := testing.AllocsPerRun(1000, func() { s.Add(id(2, next)); next++ }); allocs != 0 {
		t.Fatalf("an in-order Add allocates %.1f times", allocs)
	}
}

func BenchmarkAddInOrder(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(id(int32(i%5), uint64(i/5+1)))
	}
}

// BenchmarkAddReordered adds each node's sequences in blocks of four,
// reversed: every Add but the block's last opens or joins a run.
func BenchmarkAddReordered(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint64(i / 5)
		s.Add(id(int32(i%5), k&^3|(3-k&3)+1))
	}
}

func BenchmarkHas(b *testing.B) {
	s := New()
	for seq := uint64(1); seq <= 4096; seq++ {
		s.Add(id(0, seq))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Has(id(0, uint64(i&8191)))
	}
}

// FuzzReadSet: whatever the bytes, Read returns a set or latches an error,
// and a set it accepts is in the one canonical form — it writes back the
// fields it was read from (a uvarint may have been padded: that is
// internal/codec's business), with the members Len counts.
func FuzzReadSet(f *testing.F) {
	s, _ := randomSet(rand.New(rand.NewSource(3)))
	s.Add(id(-7, math.MaxUint64))
	f.Add(s.AppendTo(nil))
	f.Add(New().AppendTo(nil))
	f.Add([]byte{1, 1, 2, 0, 0, 0, 0})                      // two runs that touch: not canonical
	f.Add([]byte{1, 0xf0, 0xf0, 0xf0, 0xf0, 0x30, 1, 0, 0}) // a node wider than 32 bits
	f.Fuzz(func(t *testing.T, in []byte) {
		r := codec.NewReader(in)
		got := Read(&r)
		if r.End() != nil {
			return
		}
		if out := got.AppendTo(nil); !slices.Equal(uvarints(out), uvarints(in)) {
			t.Fatalf("read %x, wrote back %x", in, out)
		}
		var members int64
		for _, n := range got.nodes {
			for _, run := range n.runs {
				if !got.Has(command.ID{Node: n.id, Seq: run.lo}) || !got.Has(command.ID{Node: n.id, Seq: run.hi}) {
					t.Fatalf("run %v of node %d is not in the set", run, n.id)
				}
				members += int64(run.hi-run.lo) + 1
			}
		}
		if members != got.Len() {
			t.Fatalf("Len %d, runs hold %d", got.Len(), members)
		}
	})
}

// uvarints splits b into its uvarint fields.
func uvarints(b []byte) []uint64 {
	var out []uint64
	for r := codec.NewReader(b); r.Len() > 0; {
		out = append(out, r.Uvarint())
	}
	return out
}
