package wal

import (
	"errors"
	"fmt"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// Record payloads are length-delimited binary, framed by the segment
// layer as [u32 payload length][u32 CRC-32C of payload][payload]. The
// payload's first byte is the record type; the rest is uvarint/
// length-prefixed fields. The encoding is deliberately hand-rolled: it
// is a few times denser and faster than per-record gob (which re-emits
// type metadata every record), and a WAL rewards both. The field
// primitives live in internal/codec, shared with the wire format.

// ErrCorrupt reports a record that fails its CRC or structure checks in
// the middle of the log — data after it cannot be trusted, so OpenInto
// refuses to replay past it. (A torn *final* record is not corruption;
// it is truncated silently.)
var ErrCorrupt = errors.New("wal: corrupt record")

// appendCommandRec appends a command record's payload to b — the log
// encodes straight into its batch buffer.
func appendCommandRec(b []byte, group int32, cmd command.Command, ts timestamp.Timestamp) []byte {
	b = appendInt32(append(b, recCommand), group)
	b = codec.AppendTimestamp(b, ts)
	return codec.AppendCommand(b, cmd)
}

func encodeTxRec(xid xshard.XID, merged timestamp.Timestamp, ops []command.Command) []byte {
	b := appendXID(append(make([]byte, 0, 64), recTx), xid)
	b = codec.AppendTimestamp(b, merged)
	return codec.AppendCommands(b, ops)
}

func encodeEpochRec(ec EpochChange) []byte {
	return appendEpoch(append(make([]byte, 0, 16), recEpoch), ec)
}

// encodeFloorRec encodes a reservation, typ recSeq or recClock.
func encodeFloorRec(typ byte, group int32, upto uint64) []byte {
	b := appendInt32(append(make([]byte, 0, 12), typ), group)
	return codec.AppendUvarint(b, upto)
}

// The fields records and snapshots share: an int32 (a group, a shard
// count) is the uvarint of its 32 bits, an XID a node and a uvarint Seq,
// an epoch change three uvarints.

func appendInt32(b []byte, v int32) []byte { return codec.AppendUvarint(b, uint64(uint32(v))) }

func readInt32(r *codec.Reader) int32 { return int32(r.Uint32()) }

func appendXID(b []byte, xid xshard.XID) []byte {
	return codec.AppendUvarint(codec.AppendNode(b, xid.Node), xid.Seq)
}

func readXID(r *codec.Reader) xshard.XID {
	node := r.Node()
	return xshard.XID{Node: node, Seq: r.Uvarint()}
}

func appendEpoch(b []byte, ec EpochChange) []byte {
	b = codec.AppendUvarint(b, uint64(ec.Epoch))
	b = appendInt32(b, ec.Shards)
	return appendInt32(b, ec.PrevShards)
}

func readEpoch(r *codec.Reader) EpochChange {
	epoch := r.Uint32()
	shards := readInt32(r)
	return EpochChange{Epoch: epoch, Shards: shards, PrevShards: readInt32(r)}
}

// decoded is one replayed record, tagged by type.
type decoded struct {
	typ    byte
	group  int32
	ts     timestamp.Timestamp
	cmd    command.Command
	xid    xshard.XID
	merged timestamp.Timestamp
	ops    []command.Command
	epoch  EpochChange
	seq    uint64
}

func decodeRecord(payload []byte) (decoded, error) {
	if len(payload) == 0 {
		return decoded{}, ErrCorrupt
	}
	rec := decoded{typ: payload[0]}
	d := codec.NewReader(payload[1:])
	switch rec.typ {
	case recCommand:
		rec.group = readInt32(&d)
		rec.ts = d.Timestamp()
		rec.cmd = d.Command()
	case recTx:
		rec.xid = readXID(&d)
		rec.merged = d.Timestamp()
		rec.ops = d.Commands()
	case recEpoch:
		rec.epoch = readEpoch(&d)
	case recSeq, recClock:
		rec.group = readInt32(&d)
		rec.seq = d.Uvarint()
	default:
		return decoded{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.typ)
	}
	if d.Err() != nil {
		return decoded{}, ErrCorrupt
	}
	if d.Len() != 0 {
		return decoded{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Len())
	}
	return rec, nil
}
