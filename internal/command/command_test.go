package command

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func id(node int32, seq uint64) ID {
	return ID{Node: timestamp.NodeID(node), Seq: seq}
}

func TestConflictsMatrix(t *testing.T) {
	putA1 := Put("a", nil)
	putA1.ID = id(0, 1)
	putA2 := Put("a", nil)
	putA2.ID = id(1, 1)
	putB := Put("b", nil)
	putB.ID = id(2, 1)
	getA := Get("a")
	getA.ID = id(3, 1)
	getA2 := Get("a")
	getA2.ID = id(4, 1)
	addA := Add("a", 1)
	addA.ID = id(0, 2)
	noop := Noop()
	noop.ID = id(0, 3)

	cases := []struct {
		name string
		a, b Command
		want bool
	}{
		{"writes same key", putA1, putA2, true},
		{"writes different keys", putA1, putB, false},
		{"write vs read same key", putA1, getA, true},
		{"read vs read same key", getA, getA2, false},
		{"add vs put same key", addA, putA1, true},
		{"add vs read same key", addA, getA, true},
		{"noop vs write", noop, putA1, false},
		{"self", putA1, putA1, false},
	}
	for _, c := range cases {
		if got := c.a.Conflicts(c.b); got != c.want {
			t.Errorf("%s: Conflicts = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Conflicts(c.a); got != c.want {
			t.Errorf("%s (reversed): Conflicts = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBatchConflictsViaExtraKeys(t *testing.T) {
	batch := Command{ID: id(0, 1), Op: OpBatch, Key: "a", ExtraKeys: []string{"b", "c"}}
	onB := Put("b", nil)
	onB.ID = id(1, 1)
	onD := Put("d", nil)
	onD.ID = id(2, 1)
	if !batch.Conflicts(onB) {
		t.Error("batch must conflict via extra keys")
	}
	if batch.Conflicts(onD) {
		t.Error("batch must not conflict with untouched keys")
	}
}

func TestAddDeltaRoundTrip(t *testing.T) {
	f := func(delta int64) bool {
		return Add("k", delta).AddDelta() == delta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeys(t *testing.T) {
	if got := Noop().Keys(); got != nil {
		t.Errorf("noop keys = %v", got)
	}
	if got := Put("x", nil).Keys(); len(got) != 1 || got[0] != "x" {
		t.Errorf("put keys = %v", got)
	}
	b := Command{Op: OpBatch, Key: "a", ExtraKeys: []string{"b"}}
	if got := b.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("batch keys = %v", got)
	}
}

// TestKeyUnion: distinct keys in the members' first-seen order, keyless
// members contributing none — and WithKeys stamps them back as Keys reads
// them.
func TestKeyUnion(t *testing.T) {
	cmds := []Command{
		Put("d", nil), Noop(), Put("b", nil), Add("d", 1),
		{Op: OpBatch, Key: "a", ExtraKeys: []string{"b", "c"}}, Fence(nil),
	}
	want := []string{"d", "b", "a", "c"}
	if got := KeyUnion(cmds); !slices.Equal(got, want) {
		t.Errorf("KeyUnion = %q, want %q", got, want)
	}
	if got := KeyUnion([]Command{Noop()}); got != nil {
		t.Errorf("KeyUnion of keyless commands = %q", got)
	}
	if got := (Command{Op: OpBatch}).WithKeys(want).Keys(); !slices.Equal(got, want) {
		t.Errorf("WithKeys then Keys = %q, want %q", got, want)
	}
	if got := Noop().WithKeys(nil); got.Key != "" || got.ExtraKeys != nil {
		t.Errorf("WithKeys(nil) changed the command to %+v", got)
	}
}

func TestSortedIDOps(t *testing.T) {
	s := []ID{id(0, 1), id(1, 2)}
	if !ContainsID(s, id(0, 1)) || ContainsID(s, id(2, 3)) {
		t.Fatal("membership broken")
	}
	s = InsertID(s, id(2, 3))
	s = RemoveID(s, id(0, 1))
	if ContainsID(s, id(0, 1)) || !ContainsID(s, id(2, 3)) {
		t.Fatal("insert/remove broken")
	}
	u := InsertID(slices.Clone(s), id(4, 4))
	c := RemoveID(slices.Clone(u), id(4, 4))
	if !ContainsID(u, id(4, 4)) {
		t.Fatal("clone aliases original")
	}
	if slices.Equal(u, c) {
		t.Fatal("equal on different sets")
	}
	c = InsertID(c, id(4, 4))
	if !slices.Equal(u, c) {
		t.Fatal("unequal on equal sets")
	}
	// A union that adds members is a new slice: neither argument moves.
	a, b := []ID{id(0, 1), id(3, 3)}, []ID{id(1, 1), id(3, 3)}
	if got, want := UnionIDs(a, b), []ID{id(0, 1), id(1, 1), id(3, 3)}; !slices.Equal(got, want) {
		t.Fatalf("UnionIDs = %v, want %v", got, want)
	}
	if !slices.Equal(a, []ID{id(0, 1), id(3, 3)}) || !slices.Equal(b, []ID{id(1, 1), id(3, 3)}) {
		t.Fatalf("UnionIDs wrote into an argument: %v %v", a, b)
	}
}

// Property: a set built by InsertID is strictly ascending and holds exactly
// the inserted members; SortIDs over the distinct members gives the same
// slice.
func TestSortedIDsStaySorted(t *testing.T) {
	f := func(nodes []int32, seqs []uint64) bool {
		var s []ID
		ref := map[ID]struct{}{}
		for i := 0; i < min(len(nodes), len(seqs)); i++ {
			x := id(nodes[i]%8, seqs[i]%64+1)
			s = InsertID(s, x)
			ref[x] = struct{}{}
		}
		if len(s) != len(ref) || !IsSortedIDs(s) {
			return false
		}
		var members []ID
		for x := range ref {
			if !ContainsID(s, x) {
				return false
			}
			members = append(members, x)
		}
		return slices.Equal(SortIDs(members), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIDSlicesMatchMapReference drives the four set operations against a
// map[ID]struct{} reference over a small ID universe, so duplicates, unions
// with self, with nil and with overlapping sets, and removals of absent IDs
// all come up thousands of times.
func TestIDSlicesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pick := func() ID { return id(int32(rng.Intn(4)), uint64(1+rng.Intn(12))) }
	type pair struct {
		set []ID
		ref map[ID]struct{}
	}
	sets := make([]pair, 4)
	for i := range sets {
		sets[i].ref = map[ID]struct{}{}
	}
	check := func(step int, what string, p pair) {
		t.Helper()
		if len(p.set) != len(p.ref) || !IsSortedIDs(p.set) {
			t.Fatalf("step %d: %s left %v for reference %v", step, what, p.set, p.ref)
		}
		for x := range p.ref {
			if !ContainsID(p.set, x) {
				t.Fatalf("step %d: %s lost %v from %v", step, what, x, p.set)
			}
		}
	}
	for step := 1; step <= 40000; step++ {
		p := &sets[rng.Intn(len(sets))]
		switch op := rng.Intn(10); {
		case op < 4:
			x := pick()
			p.set = InsertID(p.set, x)
			p.ref[x] = struct{}{}
			check(step, "InsertID", *p)
		case op < 6:
			x := pick()
			p.set = RemoveID(p.set, x)
			delete(p.ref, x)
			check(step, "RemoveID", *p)
		case op < 7:
			x := pick()
			if _, want := p.ref[x]; ContainsID(p.set, x) != want {
				t.Fatalf("step %d: ContainsID(%v, %v) = %v", step, p.set, x, !want)
			}
		case op < 8:
			*p = pair{ref: map[ID]struct{}{}} // back to the nil set
		default:
			// Union with another set, with itself or with nil; the
			// arguments must come out as they went in, whether or not
			// the result shares storage with one of them.
			other := [][]ID{sets[rng.Intn(len(sets))].set, p.set, nil}[rng.Intn(3)]
			before, otherBefore := slices.Clone(p.set), slices.Clone(other)
			u := UnionIDs(p.set, other)
			if !slices.Equal(p.set, before) || !slices.Equal(other, otherBefore) {
				t.Fatalf("step %d: UnionIDs(%v, %v) wrote into an argument", step, before, otherBefore)
			}
			// The set may now share storage with another one (or with its
			// own past self): take a copy before writing into it again,
			// the rule every caller of InsertID and RemoveID follows.
			p.set = slices.Clone(u)
			for _, x := range other {
				p.ref[x] = struct{}{}
			}
			check(step, "UnionIDs", *p)
		}
	}
}

// Lookups and removals never allocate; an insert allocates only to grow.
func TestIDSliceOpsDoNotAllocate(t *testing.T) {
	set := make([]ID, 0, 16)
	for i := uint64(1); i <= 8; i++ {
		set = InsertID(set, id(int32(i%3), i))
	}
	x := id(1, 100)
	if n := testing.AllocsPerRun(100, func() {
		if ContainsID(set, x) {
			t.Fatal("absent ID found")
		}
		set = InsertID(set, x) // spare capacity
		set = RemoveID(set, x)
		set = RemoveID(set, x) // absent
	}); n != 0 {
		t.Fatalf("contains + insert + remove allocated %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if got := UnionIDs(set, set[2:5]); len(got) != len(set) {
			t.Fatal("union with a subset grew the set")
		}
	}); n != 0 {
		t.Fatalf("a union that adds nothing allocated %v times per run", n)
	}
}

func BenchmarkConflictsSingleKey(b *testing.B) {
	x := Put("key-12345", nil)
	x.ID = id(0, 1)
	y := Put("key-12345", nil)
	y.ID = id(1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Conflicts(y)
	}
}

// FuzzParseID checks the operator-surface parser (/tracez, caesar-trace)
// against String: every ID a replica can mint (node 0..N-1) survives the
// trip, a negative node — which none can — is refused, and whatever the
// parser accepts re-parses from its own rendering to itself. The parser
// is lenient where strconv is ("c+5.7" is c5.7, "5.7" too), so the
// second trip is the one that must be exact.
func FuzzParseID(f *testing.F) {
	for _, s := range []string{"c0.17", "c+5.7", "5.7", "c05.007", "c-1.2", "c2147483647.18446744073709551615", "c1.", ".1", "c1.-1", ""} {
		f.Add(s, int32(3), uint64(41))
	}
	f.Fuzz(func(t *testing.T, s string, node int32, seq uint64) {
		minted := id(node, seq)
		got, err := ParseID(minted.String())
		if node < 0 {
			if err == nil {
				t.Fatalf("ParseID(%q) accepted a negative node as %v", minted.String(), got)
			}
		} else if err != nil || got != minted {
			t.Fatalf("ParseID(%q) = %v, %v; want %v", minted.String(), got, err, minted)
		}

		parsed, err := ParseID(s)
		if err != nil {
			return
		}
		again, err := ParseID(parsed.String())
		if err != nil || again != parsed {
			t.Fatalf("ParseID(%q) = %v, whose rendering %q parses to %v, %v", s, parsed, parsed.String(), again, err)
		}
	})
}

func TestParseIDAcceptsWhatStrconvDoes(t *testing.T) {
	for s, want := range map[string]ID{"c+5.7": id(5, 7), "5.7": id(5, 7), "c05.007": id(5, 7)} {
		if got, err := ParseID(s); err != nil || got != want || got.String() != "c5.7" {
			t.Errorf("ParseID(%q) = %v, %v; want %v, printed c5.7", s, got, err, want)
		}
	}
	for _, s := range []string{"c-1.2", "c1.+2", "cc1.2", "c1", "c1.2.3"} {
		if got, err := ParseID(s); err == nil {
			t.Errorf("ParseID(%q) = %v, want an error", s, got)
		}
	}
}
