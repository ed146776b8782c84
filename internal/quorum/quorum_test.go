package quorum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSizesAtPaperScale(t *testing.T) {
	// N=5, the paper's deployment: CQ=3, FQ=4 ("CAESAR requires
	// contacting one node more than other quorum-based competitors"),
	// EPaxos optimized fast quorum = 3.
	if got := ClassicSize(5); got != 3 {
		t.Errorf("ClassicSize(5) = %d, want 3", got)
	}
	if got := FastSize(5); got != 4 {
		t.Errorf("FastSize(5) = %d, want 4", got)
	}
	if got := EPaxosFastSize(5); got != 3 {
		t.Errorf("EPaxosFastSize(5) = %d, want 3", got)
	}
	if got := RecoveryMajority(5); got != 2 {
		t.Errorf("RecoveryMajority(5) = %d, want 2", got)
	}
}

func TestSizesSmallClusters(t *testing.T) {
	cases := []struct{ n, cq, fq int }{
		{3, 2, 3},
		{4, 3, 3},
		{5, 3, 4},
		{7, 4, 6},
		{9, 5, 7},
	}
	for _, c := range cases {
		if got := ClassicSize(c.n); got != c.cq {
			t.Errorf("ClassicSize(%d) = %d, want %d", c.n, got, c.cq)
		}
		if got := FastSize(c.n); got != c.fq {
			t.Errorf("FastSize(%d) = %d, want %d", c.n, got, c.fq)
		}
	}
}

// Property: the intersection bounds the correctness proof depends on hold
// for every N: any two classic quorums intersect; |FQ ∩ CQ| ≥ ⌊CQ/2⌋+1 in
// the worst case; and FQ1 ∩ FQ2 ∩ CQ is non-empty in the worst case.
func TestQuorumIntersections(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%62) + 3 // 3..64
		cq, fq := ClassicSize(n), FastSize(n)
		// Two classic quorums intersect.
		if 2*cq <= n {
			return false
		}
		// Worst-case |FQ ∩ CQ| = fq + cq - n.
		if fq+cq-n < cq/2+1 {
			return false
		}
		// Worst-case |FQ1 ∩ FQ2 ∩ CQ| = 2*fq + cq - 2*n.
		if 2*fq+cq-2*n < 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTrackerDedup(t *testing.T) {
	tr := NewTracker(3)
	if tr.Reached() {
		t.Fatal("empty tracker reached")
	}
	if !tr.Add(1) || tr.Add(1) {
		t.Fatal("duplicate vote not rejected")
	}
	tr.Add(2)
	if tr.Reached() {
		t.Fatal("reached with 2/3")
	}
	tr.Add(3)
	if !tr.Reached() || tr.Count() != 3 {
		t.Fatalf("count=%d reached=%v", tr.Count(), tr.Reached())
	}
}

// The tracker against a plain set of voters: random streams with duplicates
// over every cluster size the word can hold.
func TestTrackerMatchesSetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(MaxNodes)
		target := 1 + rng.Intn(n)
		tr := NewTracker(target)
		seen := make(map[int32]bool)
		for i := rng.Intn(3 * n); i >= 0; i-- {
			voter := int32(rng.Intn(n))
			if got, want := tr.Add(voter), !seen[voter]; got != want {
				t.Fatalf("round %d: Add(%d) = %v, want %v (seen %v)", round, voter, got, want, seen)
			}
			seen[voter] = true
			if tr.Count() != len(seen) || tr.Reached() != (len(seen) >= target) {
				t.Fatalf("round %d: count %d reached %v after %d distinct voters, target %d", round, tr.Count(), tr.Reached(), len(seen), target)
			}
			for v := int32(0); v < int32(n); v++ {
				if tr.Has(v) != seen[v] {
					t.Fatalf("round %d: Has(%d) = %v, seen %v", round, v, tr.Has(v), seen)
				}
			}
		}
	}
}

// A voter the word cannot hold must fail loudly: shifted past bit 63 its
// vote would vanish and the phase wait for a quorum that cannot form. Asked
// whether it voted, it has not.
func TestTrackerRejectsVoterOutsideWord(t *testing.T) {
	for _, voter := range []int32{-1, MaxNodes, MaxNodes + 1} {
		if full := (Tracker{voted: ^uint64(0)}); full.Has(voter) {
			t.Errorf("Has(%d) = true on a full word", voter)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", voter)
				}
			}()
			tr := NewTracker(3)
			tr.Add(voter)
		}()
	}
	tr := NewTracker(1)
	if !tr.Add(MaxNodes-1) || !tr.Reached() {
		t.Fatal("the highest voter the word holds was not counted")
	}
}

func BenchmarkTracker(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewTracker(4)
		for v := int32(0); v < 5; v++ {
			tr.Add(v)
		}
	}
}
