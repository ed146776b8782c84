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
	b = append(b, recCommand)
	b = codec.AppendUvarint(b, uint64(uint32(group)))
	b = codec.AppendTimestamp(b, ts)
	return codec.AppendCommand(b, cmd)
}

func encodeTxRec(xid xshard.XID, merged timestamp.Timestamp, ops []command.Command) []byte {
	b := make([]byte, 0, 64)
	b = append(b, recTx)
	b = codec.AppendNode(b, xid.Node)
	b = codec.AppendUvarint(b, xid.Seq)
	b = codec.AppendTimestamp(b, merged)
	return codec.AppendCommands(b, ops)
}

func encodeEpochRec(ec EpochChange) []byte {
	b := make([]byte, 0, 16)
	b = append(b, recEpoch)
	b = codec.AppendUvarint(b, uint64(ec.Epoch))
	b = codec.AppendUvarint(b, uint64(uint32(ec.Shards)))
	return codec.AppendUvarint(b, uint64(uint32(ec.PrevShards)))
}

func encodeSeqRec(group int32, upto uint64) []byte {
	b := make([]byte, 0, 12)
	b = append(b, recSeq)
	b = codec.AppendUvarint(b, uint64(uint32(group)))
	return codec.AppendUvarint(b, upto)
}

func encodeClockRec(group int32, upto uint64) []byte {
	b := make([]byte, 0, 12)
	b = append(b, recClock)
	b = codec.AppendUvarint(b, uint64(uint32(group)))
	return codec.AppendUvarint(b, upto)
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
		rec.group = int32(uint32(d.Uvarint()))
		rec.ts = d.Timestamp()
		rec.cmd = d.Command()
	case recTx:
		rec.xid.Node = d.Node()
		rec.xid.Seq = d.Uvarint()
		rec.merged = d.Timestamp()
		rec.ops = d.Commands()
	case recEpoch:
		rec.epoch.Epoch = uint32(d.Uvarint())
		rec.epoch.Shards = int32(uint32(d.Uvarint()))
		rec.epoch.PrevShards = int32(uint32(d.Uvarint()))
	case recSeq, recClock:
		rec.group = int32(uint32(d.Uvarint()))
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
