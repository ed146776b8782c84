package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// sampleSnapshot fills every field of a snapshot, negative groups and
// nodes and a delivered set with a gap included.
func sampleSnapshot() snapshotData {
	delivered := idset.New()
	for _, seq := range []uint64{1, 2, 3, 7} {
		delivered.Add(command.ID{Node: 1, Seq: seq})
	}
	stray := idset.New()
	stray.Add(command.ID{Node: -1, Seq: 5})
	put := command.Put("k", []byte("v"))
	put.ID = command.ID{Node: 2, Seq: 9}
	settled := idset.New()
	settled.Add(command.ID(xshard.XID{Node: 1, Seq: 5}))
	return snapshotData{
		Cut: 4,
		KV:  map[string][]byte{"k": []byte("v"), "k2": []byte("v2")},
		Audit: audit.State{
			Groups: []audit.GroupState{{Group: 0, Epoch: 1, Frontier: 12, Digest: 0xfeed, IDFold: 0xbeef}},
			Stamps: []audit.Stamp{{Kind: "snapshot", Seq: 12, Frontier: 12, Digest: 0xfeed}},
		},
		State: State{
			Applied:   12,
			Delivered: map[int32]*idset.Set{0: delivered, 1: stray},
			Settled:   settled,
			PendingTx: []PendingTx{{XID: xshard.XID{Node: 2, Seq: 6}, Groups: []int32{0, 1}, Ops: []command.Command{put},
				Epoch: 1, Got: []int32{1}, Merged: timestamp.Timestamp{Seq: 30, Node: 2}}},
			Epochs:     []EpochChange{{Epoch: 1, Shards: 2, PrevShards: 1}},
			SeqFloor:   map[int32]uint64{txSeqGroup: 7, 0: 4096},
			ClockFloor: map[int32]uint64{0: 1 << 20},
			MaxTS:      77,
		},
	}
}

// snapshotBody is what writeSnapshotFile puts behind the header.
func snapshotBody(data snapshotData) []byte { return appendSnapshotBody(nil, &data) }

// frameSnapshot puts a body behind a valid snapshot header.
func frameSnapshot(body []byte) []byte {
	return sealSnapshot(append(make([]byte, snapHeaderLen), body...))
}

// Every snapshot decodes to itself, and encodes to the same bytes every
// time, whatever order its maps iterate in.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, want := range []snapshotData{sampleSnapshot(), {}, {State: State{MaxTS: 9}}, {Cut: 1, Audit: sampleSnapshot().Audit}} {
		body := snapshotBody(want)
		for i := 0; i < 10; i++ {
			if again := snapshotBody(want); !bytes.Equal(again, body) {
				t.Fatalf("%+v encoded to\n %x, then to\n %x", want, body, again)
			}
		}
		got, err := decodeSnapshot(frameSnapshot(body))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n %+v, want\n %+v", got, want)
		}
		raw := frameSnapshot(body)
		raw[len(raw)-1] ^= 1
		if _, err := decodeSnapshot(raw); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a flipped body bit decoded with err = %v, want ErrCorrupt", err)
		}
	}
}

// TestSnapshotLayout pins the body layout: the "snapshot" and "id set" rows
// of internal/codec's table. A change here is a new snapshot
// generation (snapMagic).
func TestSnapshotLayout(t *testing.T) {
	const golden = "" +
		"040c4d" + // Cut 4, Applied 12, MaxTS 77
		"02" + "016b0176" + "026b32027632" + // KV: k=v, k2=v2
		"02" + // Delivered, two groups:
		"00" + "01" + "01" + "02" + "0102" + "0200" + // group 0: node 1, runs [1,3] and [7,7]
		"01" + "01" + "ffffffff0f" + "01" + "0500" + // group 1: node -1, run [5,5]
		"01" + "01" + "01" + "0500" + // Settled: x1.5
		"01" + "0206" + "020001" + // PendingTx: x2.6 over groups 0 and 1,
		"01" + "0209" + "01" + "016b" + "0176" + "00" + "00" + "00" + // put k=v as 2.9,
		"01" + "0101" + "1e02" + // epoch 1, got group 1, merged 30.2
		"01" + "010201" + // Epochs: epoch 1, 2 shards, 1 before
		"02" + "ffffffff0f07" + "008020" + // SeqFloor: group -1 7, group 0 4096
		"01" + "00808040" + // ClockFloor: group 0 1<<20
		"01" + "00" + "01" + "0c" + "edfd03" + "effd02" + // Audit.Groups
		"01" + "08736e617073686f74" + "0c" + "00" + "00" + "0c" + "edfd03" // Audit.Stamps
	got := hex.EncodeToString(snapshotBody(sampleSnapshot()))
	if got != golden {
		t.Fatalf("sampleSnapshot's body is\n %s, the pinned layout is\n %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	if d, err := decodeSnapshot(frameSnapshot(raw)); err != nil || !reflect.DeepEqual(d, sampleSnapshot()) {
		t.Fatalf("the pinned body decodes to %+v, %v", d, err)
	}
}

// A body whose KV count claims far more entries than it has bytes is
// refused before anything is sized by the claim.
func TestSnapshotRefusesMapCountBeyondItsBytes(t *testing.T) {
	body := snapshotBody(snapshotData{Cut: 1, KV: map[string][]byte{"k": []byte("v")}})
	// Cut, Applied and MaxTS take a byte each; the KV count comes next.
	if !bytes.HasPrefix(body, []byte{1, 0, 0, 1}) {
		t.Fatalf("body %x: want Cut 1, Applied 0, MaxTS 0, then KV count 1", body)
	}
	// 1<<22 entries: a map of some 100 MB, were it sized by the claim.
	bomb := append(codec.AppendUvarint(slices.Clone(body[:3]), 1<<22), body[4:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSnapshot(frameSnapshot(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a %d-byte body allocated %d bytes", len(bomb), grew)
	}
}

// FuzzDecodeSnapshot: a snapshot file is outside bytes, and the CRC makes
// a damaged one unlikely, not impossible. Each input is tried as a whole
// file and, behind a valid magic, length and CRC, as a body. Either way
// the decoder returns a snapshot or ErrCorrupt, never panics, and a
// snapshot it returns re-encodes to bytes that decode to the same snapshot
// — so a delivered set cannot, say, list a node twice and count its
// members twice.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, data := range []snapshotData{sampleSnapshot(), {}, {State: State{MaxTS: 9}}} {
		f.Add(snapshotBody(data))
	}
	f.Add(frameSnapshot(snapshotBody(sampleSnapshot())))
	// Two nodes alike but for their ID, and the same body with node 2's ID
	// changed to 1: a node listed twice.
	twins := idset.New()
	for seq := uint64(1); seq <= 3; seq++ {
		twins.Add(command.ID{Node: 1, Seq: seq})
		twins.Add(command.ID{Node: 2, Seq: seq})
	}
	body := snapshotBody(snapshotData{State: State{Delivered: map[int32]*idset.Set{0: twins}}})
	f.Add(body)
	f.Add(bytes.Replace(body, []byte{2, 1, 1, 2}, []byte{1, 1, 1, 2}, 1))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, raw := range [][]byte{in, frameSnapshot(in)} {
			d, err := decodeSnapshot(raw)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decodeSnapshot returned %v, not ErrCorrupt", err)
				}
				continue
			}
			again, err := decodeSnapshot(frameSnapshot(snapshotBody(d)))
			if err != nil {
				t.Fatalf("re-encoded %+v does not decode: %v", d, err)
			}
			if !reflect.DeepEqual(again, d) {
				t.Fatalf("second trip changed the snapshot:\n first  %+v\n second %+v", d, again)
			}
		}
	})
}

// BenchmarkSnapshotWriteRead writes and reads back a snapshot of 24,676
// keys of 16 bytes (BenchmarkApplyPut's key count), fsync included.
func BenchmarkSnapshotWriteRead(b *testing.B) {
	data := snapshotData{Cut: 1, KV: make(map[string][]byte, 24676)}
	for i := 0; i < 24676; i++ {
		data.KV[fmt.Sprintf("key-%08d", i)] = make([]byte, 16)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeSnapshotFile(dir, &data); err != nil {
			b.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, snapName(data.Cut)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeSnapshot(raw); err != nil {
			b.Fatal(err)
		}
	}
}
