package kvstore

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// reading registers a read for the rest of the test, so every write keeps
// the version it replaces.
func reading(t *testing.T, s *Store) {
	s.BeginRead()
	t.Cleanup(s.EndRead)
}

func TestGetAtServesValueAsOfTimestamp(t *testing.T) {
	s := New()
	reading(t, s)
	putAt(s, "k", "v1", 0, 5)
	putAt(s, "k", "v2", 0, 10)
	putAt(s, "k", "v3", 0, 20)

	cases := []struct {
		at      uint64
		want    string
		present bool
	}{
		{4, "", false}, // before the first write: the absence it replaced
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
	reading(t, s)
	s.Import(map[string][]byte{"k": []byte("old")})
	putAt(s, "k", "new", 0, 50)
	val, present, covered := s.GetAt("k", 0, ts(10))
	if !covered || !present || string(val) != "old" {
		t.Fatalf("pre-write read = %q,%v,%v, want the imported base", val, present, covered)
	}
}

func TestGetAtRingEvictionFallsToBaseThenUncovered(t *testing.T) {
	s := New()
	reading(t, s)
	for i := 1; i <= versionRing+4; i++ {
		putAt(s, "k", fmt.Sprintf("v%d", i), 0, uint64(10*i))
	}
	// Under the newest, version 12, versionRing older ones survive: version
	// 4 at 40 is the oldest.
	if val, _, covered := s.GetAt("k", 0, ts(45)); !covered || string(val) != "v4" {
		t.Fatalf("read at 45 = %q covered=%v, want the oldest retained version v4", val, covered)
	}
	if got := s.RetainedVersions(); got != versionRing {
		t.Fatalf("RetainedVersions = %d, want %d", got, versionRing)
	}
	// Below its stamp the window is gone: uncovered, not wrong.
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
	reading(t, s)
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
	reading(t, s)
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
	reading(t, s)
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

// With no read registered nothing is retained, whatever the write rate; a
// write after the last read returned lets go of what that read held; and a
// read point below the one surviving version is uncovered behind its stamp.
func TestNoReaderRetainsNothing(t *testing.T) {
	s := New()
	for i := 1; i <= 10000; i++ {
		putAt(s, fmt.Sprintf("k%d", i%100), "v", 0, uint64(i))
	}
	if got := s.RetainedVersions(); got != 0 {
		t.Fatalf("RetainedVersions = %d after 10,000 unread puts, want 0", got)
	}
	if _, _, hidden, covered := s.SnapshotAt([]string{"k0"}, 0, ts(9999)); covered || hidden != ts(10000) {
		t.Fatalf("read below the only version: covered=%v hidden=%v, want uncovered behind %v", covered, hidden, ts(10000))
	}

	s.BeginRead()
	putAt(s, "k0", "held", 0, 10100)
	putAt(s, "k1", "held", 0, 10101)
	s.Import(map[string][]byte{"k1": []byte("imported")})
	if got := s.RetainedVersions(); got != 1 {
		t.Fatalf("RetainedVersions = %d under a reader (one put, one put then import), want 1", got)
	}
	s.EndRead()
	putAt(s, "k0", "dropped", 0, 10200)
	if got := s.RetainedVersions(); got != 0 {
		t.Fatalf("RetainedVersions = %d after the first write past the last reader, want 0", got)
	}
}

// TestRetentionUnderRace runs the read layer's order — register, stamp,
// snapshot, end — from several goroutines against a writer applying
// two-key atomic units at rising stamps from the same clock, with the
// reader count crossing zero all the time. Every answer must be what the
// order promises: a covered cut is whole, no older than the last unit
// applied before the read stamped and no newer than its stamp; an
// uncovered one is only allowed once more than versionRing units ran since
// the read registered.
func TestRetentionUnderRace(t *testing.T) {
	const (
		readers = 3
		reads   = 2000
	)
	s := New()
	var (
		clock             atomic.Uint64 // the group clock: unit and read stamps
		started, finished atomic.Int64  // units entering / having left ApplyAllAt
		lastApplied       atomic.Uint64 // stamp of the newest unit applied
		stop              = make(chan struct{})
		writer, wg        sync.WaitGroup
	)
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := clock.Add(1)
			val := binary.BigEndian.AppendUint64(nil, seq)
			started.Add(1)
			s.ApplyAllAt([]command.Command{command.Put("a", val), command.Put("b", val)}, ts(seq))
			lastApplied.Store(seq)
			finished.Add(1)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				before := finished.Load()
				s.BeginRead()
				floor := lastApplied.Load()
				at := ts(clock.Add(1))
				vals, _, hidden, covered := s.SnapshotAt([]string{"a", "b"}, 0, at)
				s.EndRead()
				if !covered {
					if ran := started.Load() - before; ran <= versionRing || !at.Less(hidden) {
						t.Errorf("read at %v uncovered behind %v with %d units since it registered", at, hidden, ran)
						return
					}
					continue
				}
				a, b := uint64(decodeInt(vals[0])), uint64(decodeInt(vals[1]))
				if a != b || a < floor || a > at.Seq {
					t.Errorf("read at %v = units %d / %d, want one unit between %d and the stamp", at, a, b, floor)
					return
				}
				// Let the writer through before the next read, so reads meet
				// the store with and without another read in flight.
				for finished.Load() == before {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
}
