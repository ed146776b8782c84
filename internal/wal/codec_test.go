package wal

import (
	"encoding/hex"
	"reflect"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// goldenRecords pins the on-disk record format: each hex string is what
// the commit before the field primitives moved to internal/codec wrote
// for the record beside it. A data dir is only replayable across versions
// while these hold — change one and old logs stop decoding.
func goldenRecords() []struct {
	name, hex string
	rec       decoded
} {
	put := command.Put("k1", []byte("v1"))
	put.ID = command.ID{Node: 2, Seq: 300}
	put.Epoch = 5
	batch := command.Command{ID: command.ID{Node: -1, Seq: 1 << 40}, Op: command.OpBatch,
		Key: "a", ExtraKeys: []string{"b", ""}, Payload: []byte{0, 1, 2}}
	return []struct {
		name, hex string
		rec       decoded
	}{
		{"command", "010381010102ac0201026b31027631000005",
			decoded{typ: recCommand, group: 3, ts: timestamp.Timestamp{Seq: 129, Node: 1}, cmd: put}},
		{"batch, negative group and node", "01ffffffff0f0000ffffffff0f80808080802005016100020162000300010200",
			decoded{typ: recCommand, group: -1, cmd: batch}},
		{"tx", "0201094d020202ac0201026b31027631000005000003016e08fffffffffffffffe000000",
			decoded{typ: recTx, xid: xshard.XID{Node: 1, Seq: 9}, merged: timestamp.Timestamp{Seq: 77, Node: 2},
				ops: []command.Command{put, command.Add("n", -2)}}},
		{"epoch", "03020804", decoded{typ: recEpoch, epoch: EpochChange{Epoch: 2, Shards: 8, PrevShards: 4}}},
		{"seq", "04018020", decoded{typ: recSeq, group: 1, seq: 4096}},
		{"clock", "05008080808020", decoded{typ: recClock, seq: 1 << 33}},
	}
}

// encodeRecord is the inverse of decodeRecord, for the tests that need to
// go both ways.
func encodeRecord(rec decoded) []byte {
	switch rec.typ {
	case recCommand:
		return encodeCommandRec(rec.group, rec.cmd, rec.ts)
	case recTx:
		return encodeTxRec(rec.xid, rec.merged, rec.ops)
	case recEpoch:
		return encodeEpochRec(rec.epoch)
	default:
		return encodeFloorRec(rec.typ, rec.group, rec.seq)
	}
}

func TestRecordFormatIsPinned(t *testing.T) {
	for _, g := range goldenRecords() {
		if got := hex.EncodeToString(encodeRecord(g.rec)); got != g.hex {
			t.Errorf("%s: encodes to\n %s, the format on disk is\n %s", g.name, got, g.hex)
		}
		raw, _ := hex.DecodeString(g.hex)
		got, err := decodeRecord(raw)
		if err != nil {
			t.Errorf("%s: a record written by the previous version does not decode: %v", g.name, err)
		} else if !reflect.DeepEqual(got, g.rec) {
			t.Errorf("%s: decoded\n %+v, want\n %+v", g.name, got, g.rec)
		}
	}
}

// FuzzDecodeRecord: replay must survive any bytes a damaged disk hands it
// (the CRC makes that unlikely, not impossible) without panicking, and a
// record it accepts must re-encode to bytes that decode to the same
// record.
func FuzzDecodeRecord(f *testing.F) {
	for _, g := range goldenRecords() {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rec, err := decodeRecord(in)
		if err != nil {
			return
		}
		again, err := decodeRecord(encodeRecord(rec))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", rec, err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("second trip changed the record:\n first  %+v\n second %+v", rec, again)
		}
	})
}
