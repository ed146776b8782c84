package idset

import (
	"bytes"
	"math/rand"
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
	// Out-of-order inserts: 3, 1, 2 — after 2, the watermark must absorb
	// the whole run.
	s.Add(id(0, 3))
	s.Add(id(0, 1))
	s.Add(id(0, 2))
	if len(s.above[0]) != 0 {
		t.Fatalf("overflow not absorbed: %v", s.above[0])
	}
	if s.wm[0] != 3 {
		t.Fatalf("watermark = %d, want 3", s.wm[0])
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if !s.Has(id(0, seq)) {
			t.Fatalf("lost seq %d", seq)
		}
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
		// A node whose only members sit above a watermark it never had.
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

// TestReadRefusesAllButTheCanonicalForm: a node listed twice, a node with
// no members, or a sequence at or below its watermark's successor or out
// of order would make Len count a member twice or not at all.
func TestReadRefusesAllButTheCanonicalForm(t *testing.T) {
	for name, fields := range map[string][]uint64{
		"node twice":            {2, 1, 3, 0, 1, 3, 0},
		"nodes descending":      {2, 2, 3, 0, 1, 3, 0},
		"no members":            {1, 1, 0, 0},
		"watermark's successor": {1, 1, 3, 1, 4},
		"below the watermark":   {1, 1, 3, 1, 2},
		"sequences unordered":   {1, 1, 0, 2, 9, 5},
		"sequence twice":        {1, 1, 0, 2, 5, 5},
	} {
		var b []byte
		for _, f := range fields {
			b = codec.AppendUvarint(b, f)
		}
		r := codec.NewReader(b)
		Read(&r)
		if r.End() == nil {
			t.Errorf("%s: %x read cleanly", name, b)
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
	if len(s.above[2]) != 0 {
		t.Fatalf("in-order adds left %d overflow entries", len(s.above[2]))
	}
}

func BenchmarkAddInOrder(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(id(int32(i%5), uint64(i/5+1)))
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
