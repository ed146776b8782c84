package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// recovered is what a test sees of a reopened log: the State plus the
// image OpenInto replayed into the store.
type recovered struct {
	*State
	KV map[string][]byte
}

// mustOpen opens dir and closes the log when the test ends (Close is
// idempotent, so a test may close it earlier).
func mustOpen(t *testing.T, dir string, opts Options) (*Log, recovered) {
	t.Helper()
	store := kvstore.New()
	l, st, err := OpenInto(dir, store, opts)
	if err != nil {
		t.Fatalf("OpenInto(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, recovered{State: st, KV: store.Export(nil)}
}

func logPut(t *testing.T, l *Log, group int32, node timestamp.NodeID, seq uint64, key, val string) {
	t.Helper()
	cmd := command.Put(key, []byte(val))
	cmd.ID = command.ID{Node: node, Seq: seq}
	ts := timestamp.Timestamp{Seq: seq * 10, Node: node}
	if _, err := l.LogCommand(group, cmd, ts, func() []byte { return nil }); err != nil {
		t.Fatalf("LogCommand: %v", err)
	}
}

// logTx appends a transaction record and waits for its completion.
func logTx(t *testing.T, l *Log, xid xshard.XID, merged timestamp.Timestamp, ops []command.Command, apply func()) {
	t.Helper()
	var (
		wg  sync.WaitGroup
		err error
	)
	wg.Add(1)
	l.LogTx(xid, merged, ops, apply, func(e error) { err = e; wg.Done() })
	wg.Wait()
	if err != nil {
		t.Fatalf("LogTx: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{})
	if !st.Empty {
		t.Fatalf("fresh dir not empty: %+v", st)
	}

	// A spread of record shapes: puts, an add, a multi-key batch-style
	// command with payload and epoch, a transaction, epochs, and a
	// sequence reservation.
	logPut(t, l, 0, 1, 1, "a", "va")
	logPut(t, l, 1, 2, 1, "b", "vb")
	add := command.Add("ctr", 5)
	add.ID = command.ID{Node: 1, Seq: 2}
	if _, err := l.LogCommand(0, add, timestamp.Timestamp{Seq: 30, Node: 1}, func() []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	multi := command.Command{
		ID: command.ID{Node: 3, Seq: 9}, Op: command.OpPut,
		Key: "k1", Value: []byte("v1"), ExtraKeys: []string{"k2", "k3"},
		Payload: []byte{1, 2, 3}, Epoch: 7,
	}
	if _, err := l.LogCommand(1, multi, timestamp.Timestamp{Seq: 40, Node: 3}, func() []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	xid := xshard.XID{Node: 2, Seq: 11}
	ops := []command.Command{command.Put("t1", []byte("x")), command.Put("t2", []byte("y"))}
	logTx(t, l, xid, timestamp.Timestamp{Seq: 50, Node: 2}, ops, func() {})
	if err := l.LogEpoch(EpochChange{Epoch: 0, Shards: 2, PrevShards: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch(EpochChange{Epoch: 1, Shards: 4, PrevShards: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveSeq(0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, st = mustOpen(t, dir, Options{})
	if st.Empty {
		t.Fatal("recovered state empty")
	}
	wantKV := map[string]string{"a": "va", "b": "vb", "k1": "v1", "t1": "x", "t2": "y"}
	for k, v := range wantKV {
		if got := string(st.KV[k]); got != v {
			t.Errorf("KV[%q] = %q, want %q", k, got, v)
		}
	}
	if got := binary.BigEndian.Uint64(st.KV["ctr"]); got != 5 {
		t.Errorf("ctr = %d, want 5", got)
	}
	// 4 group commands + 2 tx ops applied.
	if st.Applied != 6 {
		t.Errorf("Applied = %d, want 6", st.Applied)
	}
	if !st.Delivered[0].Has(command.ID{Node: 1, Seq: 1}) || !st.Delivered[0].Has(command.ID{Node: 1, Seq: 2}) {
		t.Error("group 0 delivered set missing IDs")
	}
	if !st.Delivered[1].Has(command.ID{Node: 3, Seq: 9}) {
		t.Error("group 1 delivered set missing multi-key command")
	}
	if st.Settled.Len() != 1 || !st.Settled.Has(command.ID(xid)) {
		t.Errorf("Settled holds %d XIDs, want exactly %v", st.Settled.Len(), xid)
	}
	if len(st.Epochs) != 2 || st.Epochs[1] != (EpochChange{Epoch: 1, Shards: 4, PrevShards: 2}) {
		t.Errorf("Epochs = %v", st.Epochs)
	}
	if ec, ok := st.CurrentEpoch(); !ok || ec.Shards != 4 {
		t.Errorf("CurrentEpoch = %v, %v", ec, ok)
	}
	if st.SeqFloor[0] != 4096 {
		t.Errorf("SeqFloor[0] = %d, want 4096", st.SeqFloor[0])
	}
	if st.MaxTS != 50 {
		t.Errorf("MaxTS = %d, want 50", st.MaxTS)
	}
	seed := st.GroupSeed(0)
	if seed.SeqFloor != 4096 || seed.ClockSeed != 50 || seed.Delivered == nil {
		t.Errorf("GroupSeed(0) = %+v", seed)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	logPut(t, l, 0, 1, 1, "a", "1")
	logPut(t, l, 0, 1, 2, "b", "2")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: append half a frame to the segment.
	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{200, 0, 0, 0, 1, 2, 3} // length says 200, payload cut short
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)

	l, st := mustOpen(t, dir, Options{})
	if string(st.KV["a"]) != "1" || string(st.KV["b"]) != "2" {
		t.Errorf("lost records across torn tail: %v", st.KV)
	}
	after, _ := os.Stat(seg)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Errorf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// The log must keep appending cleanly after the truncation.
	logPut(t, l, 0, 1, 3, "c", "3")
	l.Close()
	_, st = mustOpen(t, dir, Options{})
	if string(st.KV["c"]) != "3" {
		t.Error("append after torn-tail recovery lost")
	}
}

func TestCorruptionBeforeFinalSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentSize: 1}) // roll after every sync
	logPut(t, l, 0, 1, 1, "a", "1")
	logPut(t, l, 0, 1, 2, "b", "2")
	logPut(t, l, 0, 1, 3, "c", "3")
	l.Close()

	segs, _, err := scanDir(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (%v)", segs, err)
	}
	// Flip a payload byte in the first (non-final) segment.
	seg := filepath.Join(dir, segName(segs[0]))
	raw, _ := os.ReadFile(seg)
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(seg, raw, 0o644)

	if _, _, err := OpenInto(dir, kvstore.New(), Options{}); err == nil {
		t.Fatal("OpenInto succeeded over mid-log corruption")
	}
}

// TestOldGenerationSegmentIsRefused: a data dir written before the
// cross-shard, batch and resize payloads left gob (segment magic CAESWAL1)
// holds command records this build would read as undecodable payloads and
// skip. It is refused whole instead, by name — even when the segment is
// the final one, where damage is otherwise truncated away.
func TestOldGenerationSegmentIsRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	logPut(t, l, 0, 1, 1, "a", "1")
	l.Close()
	segs, _, err := scanDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	seg := filepath.Join(dir, segName(segs[0]))
	raw, _ := os.ReadFile(seg)
	copy(raw, "CAESWAL1")
	os.WriteFile(seg, raw, 0o644)

	_, _, err = OpenInto(dir, kvstore.New(), Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "written by format CAESWAL1") {
		t.Fatalf("OpenInto over a CAESWAL1 segment: %v, want ErrCorrupt naming the generation", err)
	}
	if after, _ := os.ReadFile(seg); !bytes.Equal(after, raw) {
		t.Fatal("the refused segment was modified")
	}
}

// TestOldGenerationSnapshotIsRefused: a snapshot of an earlier generation
// — gob (CAESNAP1), or codec fields that listed every executed transaction
// (CAESNAP2) — is refused by name too. Skipping it instead would leave
// replay starting past the segments it covered, and the error would blame a
// missing snapshot.
func TestOldGenerationSnapshotIsRefused(t *testing.T) {
	for _, magic := range []string{"CAESNAP1", "CAESNAP2"} {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{})
		logPut(t, l, 0, 1, 1, "a", "1")
		if err := l.Snapshot(func() (map[string][]byte, int64) { return map[string][]byte{"a": []byte("1")}, 1 }); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, snaps, err := scanDir(dir)
		if err != nil || len(snaps) != 1 {
			t.Fatalf("want 1 snapshot, got %v (%v)", snaps, err)
		}
		snap := filepath.Join(dir, snapName(snaps[0]))
		raw, _ := os.ReadFile(snap)
		copy(raw, magic)
		os.WriteFile(snap, raw, 0o644)

		_, _, err = OpenInto(dir, kvstore.New(), Options{})
		want := fmt.Sprintf("snapshot %d was written by format %s, this build reads CAESNAP3 only", snaps[0], magic)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("OpenInto over a %s snapshot: %v, want ErrCorrupt saying %q", magic, err, want)
		}
		if after, _ := os.ReadFile(snap); !bytes.Equal(after, raw) {
			t.Fatalf("the refused %s snapshot was modified", magic)
		}
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	met := metrics.NewRecorder()
	l, _ := mustOpen(t, dir, Options{SegmentSize: 256, Metrics: met})
	store := kvstore.New()
	for i := 1; i <= 50; i++ {
		cmd := command.Add("ctr", 1)
		cmd.ID = command.ID{Node: 1, Seq: uint64(i)}
		if _, err := l.LogCommand(0, cmd, timestamp.Timestamp{Seq: uint64(i), Node: 1}, func() []byte {
			return store.ApplyAt(cmd, timestamp.Zero)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(func() (map[string][]byte, int64) {
		return store.Export(nil), store.Applied()
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	segs, snaps, _ := scanDir(dir)
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %v", snaps)
	}
	if len(segs) != 1 || segs[0] != snaps[0] {
		t.Fatalf("segments not truncated to the cut: segs %v, snaps %v", segs, snaps)
	}
	// More appends after the snapshot land in the tail.
	for i := 51; i <= 60; i++ {
		cmd := command.Add("ctr", 1)
		cmd.ID = command.ID{Node: 1, Seq: uint64(i)}
		if _, err := l.LogCommand(0, cmd, timestamp.Timestamp{Seq: uint64(i), Node: 1}, func() []byte {
			return store.ApplyAt(cmd, timestamp.Zero)
		}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	_, st := mustOpen(t, dir, Options{})
	if got := int64(binary.BigEndian.Uint64(st.KV["ctr"])); got != 60 {
		t.Errorf("ctr = %d, want 60 (snapshot + tail)", got)
	}
	if st.Applied != 60 {
		t.Errorf("Applied = %d, want 60", st.Applied)
	}
	for i := 1; i <= 60; i++ {
		if !st.Delivered[0].Has(command.ID{Node: 1, Seq: uint64(i)}) {
			t.Fatalf("delivered set lost seq %d across snapshot", i)
		}
	}
	if met.Fsyncs.Load() == 0 || met.FsyncedRecords.Load() != 60 {
		t.Errorf("fsync metrics: batches %d, records %d (want records 60)",
			met.Fsyncs.Load(), met.FsyncedRecords.Load())
	}
}

// TestConcurrentAppendSnapshotCut hammers the log from several goroutines
// while snapshots run, then verifies the recovered counter equals every
// logged increment exactly once — the snapshot cut never double-counts or
// drops a record.
func TestConcurrentAppendSnapshotCut(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentSize: 4 << 10, SnapshotBytes: 8 << 10})
	store := kvstore.New()
	const writers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				cmd := command.Add("ctr", 1)
				cmd.ID = command.ID{Node: timestamp.NodeID(w), Seq: uint64(i)}
				if _, err := l.LogCommand(int32(w%2), cmd, timestamp.Timestamp{Seq: uint64(i), Node: timestamp.NodeID(w)}, func() []byte {
					return store.ApplyAt(cmd, timestamp.Zero)
				}); err != nil {
					t.Errorf("LogCommand: %v", err)
					return
				}
			}
		}(w)
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 20; i++ {
			_ = l.MaybeSnapshot(func() (map[string][]byte, int64) {
				return store.Export(nil), store.Applied()
			})
		}
	}()
	wg.Wait()
	<-snapDone
	l.Close()

	_, st := mustOpen(t, dir, Options{})
	want := int64(writers * each)
	if got := int64(binary.BigEndian.Uint64(st.KV["ctr"])); got != want {
		t.Errorf("ctr = %d, want %d", got, want)
	}
	if st.Applied != want {
		t.Errorf("Applied = %d, want %d", st.Applied, want)
	}
	for w := 0; w < writers; w++ {
		for i := 1; i <= each; i++ {
			if !st.Delivered[int32(w%2)].Has(command.ID{Node: timestamp.NodeID(w), Seq: uint64(i)}) {
				t.Fatalf("delivered set missing writer %d seq %d", w, i)
			}
		}
	}
}

func TestGenerations(t *testing.T) {
	st := &State{Epochs: []EpochChange{
		{Epoch: 0, Shards: 2, PrevShards: 2},
		{Epoch: 1, Shards: 4, PrevShards: 2}, // groups 2,3 born at epoch 1
		{Epoch: 2, Shards: 3, PrevShards: 4}, // group 3 retired
		{Epoch: 3, Shards: 5, PrevShards: 3}, // groups 3,4 (re)born at epoch 3
	}}
	got := st.Generations(5)
	want := []int32{0, 0, 1, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Generations = %v, want %v", got, want)
		}
	}
	var none *State
	if g := none.Generations(2); g[0] != 0 || g[1] != 0 {
		t.Errorf("nil state generations = %v", g)
	}
}

func TestCodecFuzzShapes(t *testing.T) {
	cmds := []command.Command{
		{},
		command.Noop(),
		command.Fence([]byte("marker")),
		{ID: command.ID{Node: 0, Seq: 0}, Op: command.OpGet, Key: ""},
		{ID: command.ID{Node: 31, Seq: 1 << 60}, Op: command.OpPut, Key: string(bytes.Repeat([]byte("k"), 300)), Value: bytes.Repeat([]byte{0}, 1000), Epoch: 1<<32 - 1},
	}
	for i, cmd := range cmds {
		payload := encodeCommandRec(7, cmd, timestamp.Timestamp{Seq: 99, Node: 3})
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("cmd %d: %v", i, err)
		}
		if rec.group != 7 || rec.ts.Seq != 99 || rec.ts.Node != 3 {
			t.Fatalf("cmd %d: envelope %+v", i, rec)
		}
		if rec.cmd.ID != cmd.ID || rec.cmd.Op != cmd.Op || rec.cmd.Key != cmd.Key ||
			!bytes.Equal(rec.cmd.Value, cmd.Value) || !bytes.Equal(rec.cmd.Payload, cmd.Payload) ||
			rec.cmd.Epoch != cmd.Epoch || len(rec.cmd.ExtraKeys) != len(cmd.ExtraKeys) {
			t.Fatalf("cmd %d: round trip %+v != %+v", i, rec.cmd, cmd)
		}
	}
	// Truncations of a valid payload must error, never panic or succeed.
	full := encodeCommandRec(1, command.Put("key", []byte("value")), timestamp.Timestamp{Seq: 4, Node: 2})
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeRecord(full[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Close()
	if _, err := l.LogCommand(0, command.Put("a", nil), timestamp.Zero, func() []byte {
		t.Fatal("apply ran on a closed log")
		return nil
	}); err == nil {
		t.Fatal("append on closed log succeeded")
	}
}
