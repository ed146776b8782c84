package kvstore

import (
	"fmt"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func ts(seq uint64) timestamp.Timestamp {
	return timestamp.Timestamp{Seq: seq, Node: 0}
}

func putAt(s *Store, key, val string, epoch uint32, at uint64) {
	cmd := command.Put(key, []byte(val))
	cmd.Epoch = epoch
	s.ApplyAt(cmd, ts(at))
}

func TestGetAtServesValueAsOfTimestamp(t *testing.T) {
	s := New()
	putAt(s, "k", "v1", 0, 5)
	putAt(s, "k", "v2", 0, 10)
	putAt(s, "k", "v3", 0, 20)

	cases := []struct {
		at      uint64
		want    string
		present bool
	}{
		{4, "", false}, // before the first write: the pre-write base (absent)
		{5, "v1", true},
		{9, "v1", true},
		{10, "v2", true},
		{15, "v2", true},
		{20, "v3", true},
		{100, "v3", true},
	}
	for _, c := range cases {
		val, present, covered := s.GetAt("k", 0, ts(c.at))
		if !covered {
			t.Fatalf("GetAt(%d): uncovered", c.at)
		}
		if present != c.present || string(val) != c.want {
			t.Fatalf("GetAt(%d) = %q,%v, want %q,%v", c.at, val, present, c.want, c.present)
		}
	}
}

func TestGetAtUnwrittenKeyServesCurrentState(t *testing.T) {
	s := New()
	if _, present, covered := s.GetAt("missing", 0, ts(1)); present || !covered {
		t.Fatalf("missing key: present=%v covered=%v", present, covered)
	}
	// An imported key with no recorded versions serves its current value
	// at every read point (restart/handoff state).
	s.Import(map[string][]byte{"imported": []byte("x")})
	val, present, covered := s.GetAt("imported", 3, ts(1))
	if !covered || !present || string(val) != "x" {
		t.Fatalf("imported key: %q,%v,%v", val, present, covered)
	}
}

func TestGetAtFirstWriteSnapshotsImportedBase(t *testing.T) {
	s := New()
	s.Import(map[string][]byte{"k": []byte("old")})
	putAt(s, "k", "new", 0, 50)
	val, present, covered := s.GetAt("k", 0, ts(10))
	if !covered || !present || string(val) != "old" {
		t.Fatalf("pre-write read = %q,%v,%v, want the imported base", val, present, covered)
	}
}

func TestGetAtRingEvictionFallsToBaseThenUncovered(t *testing.T) {
	s := New()
	for i := 1; i <= versionRing+4; i++ {
		putAt(s, "k", fmt.Sprintf("v%d", i), 0, uint64(10*i))
	}
	// The oldest surviving stamp is (ring overflowed by 4) version 5 at 50;
	// version 4 at 40 is the evicted base.
	if val, _, covered := s.GetAt("k", 0, ts(45)); !covered || string(val) != "v4" {
		t.Fatalf("read at 45 = %q covered=%v, want evicted base v4", val, covered)
	}
	// Below the base's own stamp the window is gone: uncovered, not wrong.
	if _, _, covered := s.GetAt("k", 0, ts(35)); covered {
		t.Fatal("read below the retention window must report uncovered")
	}
	// A snapshot names the stamp a retry has to clear: the key's newest.
	if _, _, hidden, covered := s.SnapshotAt([]string{"k"}, 0, ts(35)); covered || hidden != ts(10*(versionRing+4)) {
		t.Fatalf("snapshot at 35: covered=%v hidden=%v, want uncovered behind %v", covered, hidden, ts(10*(versionRing+4)))
	}
}

func TestGetAtEarlierEpochVersionsVisible(t *testing.T) {
	s := New()
	// A key written under epoch 1 (its old home group's timestamp space),
	// then under epoch 2 after a resize moved it: a read under epoch 2
	// sees the old-epoch version even though its raw timestamp is higher
	// than the read point — per-key apply order is what versions follow.
	putAt(s, "k", "old-home", 1, 900)
	val, _, covered := s.GetAt("k", 2, ts(3))
	if !covered || string(val) != "old-home" {
		t.Fatalf("cross-epoch read = %q covered=%v", val, covered)
	}
	putAt(s, "k", "new-home", 2, 5)
	if val, _, _ := s.GetAt("k", 2, ts(4)); string(val) != "old-home" {
		t.Fatalf("read below the new write = %q, want old-home", val)
	}
	if val, _, _ := s.GetAt("k", 2, ts(5)); string(val) != "new-home" {
		t.Fatalf("read at the new write = %q, want new-home", val)
	}
}

func TestSnapshotAtSeesAtomicUnitWholeOrNot(t *testing.T) {
	s := New()
	putAt(s, "a", "a0", 0, 1)
	putAt(s, "b", "b0", 0, 2)
	// A transaction applied atomically at merged timestamp 10 on both keys.
	s.ApplyAllAt([]command.Command{
		command.Put("a", []byte("a1")),
		command.Put("b", []byte("b1")),
	}, ts(10))

	vals, _, _, covered := s.SnapshotAt([]string{"a", "b"}, 0, ts(9))
	if !covered || string(vals[0]) != "a0" || string(vals[1]) != "b0" {
		t.Fatalf("snapshot below the tx = %q/%q covered=%v", vals[0], vals[1], covered)
	}
	vals, _, _, covered = s.SnapshotAt([]string{"a", "b"}, 0, ts(10))
	if !covered || string(vals[0]) != "a1" || string(vals[1]) != "b1" {
		t.Fatalf("snapshot at the tx = %q/%q covered=%v", vals[0], vals[1], covered)
	}
}

func TestApplyAtAddRecordsVersions(t *testing.T) {
	s := New()
	add := command.Add("n", 5)
	s.ApplyAt(add, ts(3))
	s.ApplyAt(command.Add("n", 7), ts(8))
	val, present, covered := s.GetAt("n", 0, ts(5))
	if !covered || !present || decodeInt(val) != 5 {
		t.Fatalf("add version at 5 = %d (%v,%v)", decodeInt(val), present, covered)
	}
	if val, _, _ := s.GetAt("n", 0, ts(8)); decodeInt(val) != 12 {
		t.Fatalf("add version at 8 = %d", decodeInt(val))
	}
}
