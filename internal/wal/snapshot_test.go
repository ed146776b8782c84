package wal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// sampleSnapshot fills every field of a snapshot, so its gob stream
// carries every type a snapshot file can hold.
func sampleSnapshot() snapshotData {
	delivered := idset.New()
	for _, seq := range []uint64{1, 2, 3, 7} {
		delivered.Add(command.ID{Node: 1, Seq: seq})
	}
	put := command.Put("k", []byte("v"))
	put.ID = command.ID{Node: 2, Seq: 9}
	return snapshotData{
		Cut:        4,
		KV:         map[string][]byte{"k": []byte("v"), "k2": []byte("v2")},
		Applied:    12,
		Delivered:  map[int32]idset.Dump{0: delivered.Dump()},
		ExecutedTx: []xshard.XID{{Node: 1, Seq: 5}},
		PendingTx:  []PendingTx{{XID: xshard.XID{Node: 2, Seq: 6}, Groups: []int32{0, 1}, Ops: []command.Command{put}, Epoch: 1, Got: []int32{1}}},
		Epochs:     []EpochChange{{Epoch: 1, Shards: 2, PrevShards: 1}},
		SeqFloor:   map[int32]uint64{0: 4096},
		ClockFloor: map[int32]uint64{0: 1 << 20},
		MaxTS:      77,
		Audit: audit.State{
			Groups: []audit.GroupState{{Group: 0, Epoch: 1, Frontier: 12, Digest: 0xfeed, IDFold: 0xbeef}},
			Stamps: []audit.Stamp{{Kind: "snapshot", Seq: 12, Frontier: 12, Digest: 0xfeed}},
		},
	}
}

// frameSnapshot puts a body behind a valid snapshot header.
func frameSnapshot(body []byte) []byte {
	hdr := snapHeader(body)
	return append(hdr[:], body...)
}

func encodeSnapshot(t testing.TB, data snapshotData) []byte {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(data); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// Every snapshot the writer produces passes the bounds walk and decodes
// to itself — a sparse one too, whose field deltas are long jumps over
// zero fields.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, want := range []snapshotData{sampleSnapshot(), {}, {MaxTS: 9}, {Cut: 1, Audit: sampleSnapshot().Audit}} {
		body := encodeSnapshot(t, want)
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

// A body whose map count claims far more entries than it has bytes is
// refused before gob sees it: gob would size the map by the claim first.
func TestSnapshotRefusesMapCountBeyondItsBytes(t *testing.T) {
	body := encodeSnapshot(t, snapshotData{SeqFloor: map[int32]uint64{0: 1}})
	// The value message is the last one. Past its length and type ID come
	// the SeqFloor field's delta (8: fields 0..6 are zero) and the count.
	w := &gobWalk{b: body}
	var last []byte
	for len(w.b) > 0 {
		n, ok := w.count()
		if !ok {
			t.Fatal("the writer's stream does not walk")
		}
		last, w.b = w.b, w.b[n:]
	}
	w.b = last
	w.int()
	if d, _ := w.uint(); d != 8 || len(last) > 120 || w.b[0] != 1 {
		t.Fatalf("value message %x: want a one-byte length, field delta 8, then count 1", last)
	}
	at := len(body) - len(w.b)
	// 1<<22 entries: some 80 MB if gob were to size a map by it.
	bomb := append(append(slices.Clone(body[:at]), 0xfd, 0x40, 0, 0), body[at+1:]...)
	bomb[len(body)-len(last)-1] += 3 // the message grew by three bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSnapshot(frameSnapshot(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("refusing a %d-byte body allocated %d bytes", len(bomb), grew)
	}
}

// FuzzDecodeSnapshot: a snapshot file is outside bytes, and the CRC makes
// a damaged one unlikely, not impossible. Each input is tried as a whole
// file and, behind a valid magic, length and CRC, as a body, so that gob
// decodes it. Either way the decoder returns a snapshot or ErrCorrupt, and
// never panics.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, data := range []snapshotData{sampleSnapshot(), {}, {MaxTS: 9}} {
		f.Add(encodeSnapshot(f, data))
	}
	f.Add(frameSnapshot(encodeSnapshot(f, sampleSnapshot())))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, raw := range [][]byte{in, frameSnapshot(in)} {
			if _, err := decodeSnapshot(raw); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeSnapshot returned %v, not ErrCorrupt", err)
			}
		}
	})
}
