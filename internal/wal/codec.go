package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// Record payloads are length-delimited binary, framed by the segment
// layer as [u32 payload length][u32 CRC-32C of payload][payload]. The
// payload's first byte is the record type; the rest is uvarint/
// length-prefixed fields. The encoding is deliberately hand-rolled: it
// is a few times denser and faster than per-record gob (which re-emits
// type metadata every record), and a WAL rewards both.

// ErrCorrupt reports a record that fails its CRC or structure checks in
// the middle of the log — data after it cannot be trusted, so OpenInto
// refuses to replay past it. (A torn *final* record is not corruption;
// it is truncated silently.)
var ErrCorrupt = errors.New("wal: corrupt record")

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTimestamp(b []byte, ts timestamp.Timestamp) []byte {
	b = appendUvarint(b, ts.Seq)
	return appendUvarint(b, uint64(uint32(ts.Node)))
}

func appendCommand(b []byte, cmd command.Command) []byte {
	b = appendUvarint(b, uint64(uint32(cmd.ID.Node)))
	b = appendUvarint(b, cmd.ID.Seq)
	b = append(b, byte(cmd.Op))
	b = appendString(b, cmd.Key)
	b = appendBytes(b, cmd.Value)
	b = appendUvarint(b, uint64(len(cmd.ExtraKeys)))
	for _, k := range cmd.ExtraKeys {
		b = appendString(b, k)
	}
	b = appendBytes(b, cmd.Payload)
	return appendUvarint(b, uint64(cmd.Epoch))
}

func encodeCommandRec(group int32, cmd command.Command, ts timestamp.Timestamp) []byte {
	b := make([]byte, 0, 32+len(cmd.Key)+len(cmd.Value)+len(cmd.Payload))
	b = append(b, recCommand)
	b = appendUvarint(b, uint64(uint32(group)))
	b = appendTimestamp(b, ts)
	return appendCommand(b, cmd)
}

func encodeTxRec(xid xshard.XID, merged timestamp.Timestamp, ops []command.Command) []byte {
	b := make([]byte, 0, 64)
	b = append(b, recTx)
	b = appendUvarint(b, uint64(uint32(xid.Node)))
	b = appendUvarint(b, xid.Seq)
	b = appendTimestamp(b, merged)
	b = appendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = appendCommand(b, op)
	}
	return b
}

func encodeEpochRec(ec EpochChange) []byte {
	b := make([]byte, 0, 16)
	b = append(b, recEpoch)
	b = appendUvarint(b, uint64(ec.Epoch))
	b = appendUvarint(b, uint64(uint32(ec.Shards)))
	return appendUvarint(b, uint64(uint32(ec.PrevShards)))
}

func encodeSeqRec(group int32, upto uint64) []byte {
	b := make([]byte, 0, 12)
	b = append(b, recSeq)
	b = appendUvarint(b, uint64(uint32(group)))
	return appendUvarint(b, upto)
}

func encodeClockRec(group int32, upto uint64) []byte {
	b := make([]byte, 0, 12)
	b = append(b, recClock)
	b = appendUvarint(b, uint64(uint32(group)))
	return appendUvarint(b, upto)
}

// decoder walks one record payload.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = ErrCorrupt
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = ErrCorrupt
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[:n])
	d.b = d.b[n:]
	return p
}

func (d *decoder) str() string {
	return string(d.bytes())
}

func (d *decoder) node() timestamp.NodeID {
	return timestamp.NodeID(int32(uint32(d.uvarint())))
}

func (d *decoder) timestamp() timestamp.Timestamp {
	seq := d.uvarint()
	return timestamp.Timestamp{Seq: seq, Node: d.node()}
}

func (d *decoder) command() command.Command {
	var cmd command.Command
	cmd.ID.Node = d.node()
	cmd.ID.Seq = d.uvarint()
	if d.err == nil {
		if len(d.b) == 0 {
			d.err = ErrCorrupt
			return cmd
		}
		cmd.Op = command.Op(d.b[0])
		d.b = d.b[1:]
	}
	cmd.Key = d.str()
	cmd.Value = d.bytes()
	if n := d.uvarint(); n > 0 {
		if n > uint64(len(d.b)) { // each key needs ≥1 length byte
			d.err = ErrCorrupt
			return cmd
		}
		cmd.ExtraKeys = make([]string, n)
		for i := range cmd.ExtraKeys {
			cmd.ExtraKeys[i] = d.str()
		}
	}
	cmd.Payload = d.bytes()
	cmd.Epoch = uint32(d.uvarint())
	if len(cmd.Value) == 0 {
		cmd.Value = nil
	}
	if len(cmd.Payload) == 0 {
		cmd.Payload = nil
	}
	return cmd
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
	d := &decoder{b: payload[1:]}
	switch rec.typ {
	case recCommand:
		rec.group = int32(uint32(d.uvarint()))
		rec.ts = d.timestamp()
		rec.cmd = d.command()
	case recTx:
		rec.xid.Node = d.node()
		rec.xid.Seq = d.uvarint()
		rec.merged = d.timestamp()
		n := d.uvarint()
		if d.err == nil {
			if n > uint64(len(d.b)) {
				return decoded{}, ErrCorrupt
			}
			rec.ops = make([]command.Command, n)
			for i := range rec.ops {
				rec.ops[i] = d.command()
			}
		}
	case recEpoch:
		rec.epoch.Epoch = uint32(d.uvarint())
		rec.epoch.Shards = int32(uint32(d.uvarint()))
		rec.epoch.PrevShards = int32(uint32(d.uvarint()))
	case recSeq, recClock:
		rec.group = int32(uint32(d.uvarint()))
		rec.seq = d.uvarint()
	default:
		return decoded{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.typ)
	}
	if d.err != nil {
		return decoded{}, d.err
	}
	if len(d.b) != 0 {
		return decoded{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return rec, nil
}
