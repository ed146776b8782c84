package command

import (
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

func TestIDSetOps(t *testing.T) {
	s := NewIDSet(id(0, 1), id(1, 2))
	if !s.Has(id(0, 1)) || s.Has(id(2, 3)) {
		t.Fatal("membership broken")
	}
	s.Add(id(2, 3))
	s.Remove(id(0, 1))
	if s.Has(id(0, 1)) || !s.Has(id(2, 3)) {
		t.Fatal("add/remove broken")
	}
	u := s.Clone()
	u.Add(id(4, 4))
	c := u.Clone()
	c.Remove(id(4, 4))
	if !u.Has(id(4, 4)) {
		t.Fatal("clone aliases original")
	}
	if u.Equal(c) {
		t.Fatal("Equal on different sets")
	}
	c.Add(id(4, 4))
	if !u.Equal(c) {
		t.Fatal("Equal on equal sets")
	}
}

// Property: Slice returns sorted unique members matching the set.
func TestIDSetSliceSorted(t *testing.T) {
	f := func(nodes []int32, seqs []uint64) bool {
		s := IDSet{}
		n := len(nodes)
		if len(seqs) < n {
			n = len(seqs)
		}
		for i := 0; i < n; i++ {
			s.Add(id(nodes[i]%8, seqs[i]%64+1))
		}
		out := s.Slice()
		if len(out) != len(s) {
			return false
		}
		for i := 1; i < len(out); i++ {
			a, b := out[i-1], out[i]
			if a.Node > b.Node || (a.Node == b.Node && a.Seq >= b.Seq) {
				return false
			}
		}
		for _, x := range out {
			if !s.Has(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
