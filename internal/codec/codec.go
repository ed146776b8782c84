// Package codec holds the binary field primitives shared by the
// hand-rolled formats in the repo: WAL records (internal/wal), wire frames
// (internal/wire) and the payloads consensus orders inside a command
// (cross-shard pieces and abort markers, batches, resize markers). All are
// uvarint/length-prefixed fields, most behind a type byte; appending goes
// through the Append* functions, decoding through a Reader that owns every
// bounds check, so a command, timestamp or ID is laid out — and validated —
// by one piece of code wherever it is stored or sent.
//
// Field layouts (the WAL's on-disk format since PR 4; changing one is a
// format change for every user):
//
//	uvarint    binary.AppendUvarint
//	bytes      uvarint length, then the bytes
//	node       uvarint of the NodeID's 32 bits (negative IDs take 5 bytes)
//	timestamp  uvarint Seq, node
//	id         node, uvarint Seq
//	ids        uvarint count, then that many ids
//	command    id, Op byte, bytes Key, bytes Value, uvarint count +
//	           that many bytes ExtraKeys, bytes Payload, uvarint Epoch
//	commands   uvarint count, then that many commands
//
// Command payloads built from them (a command's Payload, by Op). WAL
// command records persist them, so changing one is a new segment
// generation (wal's segMagic):
//
//	piece      OpXCommit (xshard): byte 1, node + uvarint Seq (the XID),
//	           uvarint count + that many uvarint groups, commands
//	abort      OpXAbort (xshard): byte 2, node + uvarint Seq, uvarint group
//	batch      OpBatch (batch): commands
//	marker     OpFence (rebalance): uvarint Epoch, uvarint Shards, uvarint
//	           PrevShards
//
// The WAL snapshot and the ID sets it persists. A group is the
// uvarint of its int32's 32 bits; lists read as maps are written in
// ascending order, so equal snapshots are equal bytes. Changing one is a
// new snapshot generation (wal's snapMagic):
//
//	id set    uvarint count + that many (node, uvarint count + that many
//	          runs), nodes ascending (idset). A run [lo, hi] is uvarint
//	          lo - start, uvarint hi - lo, where start is 0 for a node's
//	          first run and the previous run's hi + 2 after it: runs
//	          ascend and neither overlap nor touch, so a set has one
//	          encoding. Its Len is recomputed
//	snapshot  uvarint Cut, uvarint Applied, uvarint MaxTS;
//	          uvarint count + (bytes key, bytes value), by key;
//	          uvarint count + (group, id set of delivered commands), by
//	          group; id set of settled XIDs (executed or dead, as IDs);
//	          uvarint count + pending transactions (XID, uvarint count +
//	          groups, commands, uvarint Epoch, uvarint count + groups
//	          Got, timestamp Merged);
//	          uvarint count + epochs (uvarint Epoch, Shards, PrevShards);
//	          sequence floors, then clock floors, each uvarint count +
//	          (group, uvarint), by group;
//	          uvarint count + audit groups (group, uvarint Epoch,
//	          Frontier, Digest, IDFold); uvarint count + audit stamps
//	          (bytes Kind, uvarint Seq, group, uvarint Epoch, Frontier,
//	          Digest)
package codec

import (
	"encoding/binary"
	"errors"
	"math"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// ErrMalformed reports input that ends early or carries a length its
// remaining bytes cannot hold.
var ErrMalformed = errors.New("codec: malformed input")

// AppendUvarint appends v.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBytes appends p with its length.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s with its length; the layout is AppendBytes'.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendNode appends a node ID.
func AppendNode(b []byte, n timestamp.NodeID) []byte {
	return AppendUvarint(b, uint64(uint32(n)))
}

// AppendTimestamp appends ts.
func AppendTimestamp(b []byte, ts timestamp.Timestamp) []byte {
	b = AppendUvarint(b, ts.Seq)
	return AppendNode(b, ts.Node)
}

// AppendID appends a command ID.
func AppendID(b []byte, id command.ID) []byte {
	b = AppendNode(b, id.Node)
	return AppendUvarint(b, id.Seq)
}

// AppendIDs appends a counted list of command IDs.
func AppendIDs(b []byte, ids []command.ID) []byte {
	b = AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = AppendID(b, id)
	}
	return b
}

// AppendCommand appends cmd.
func AppendCommand(b []byte, cmd command.Command) []byte {
	b = AppendID(b, cmd.ID)
	b = append(b, byte(cmd.Op))
	b = AppendString(b, cmd.Key)
	b = AppendBytes(b, cmd.Value)
	b = AppendUvarint(b, uint64(len(cmd.ExtraKeys)))
	for _, k := range cmd.ExtraKeys {
		b = AppendString(b, k)
	}
	b = AppendBytes(b, cmd.Payload)
	return AppendUvarint(b, uint64(cmd.Epoch))
}

// minCommandLen is the fewest bytes AppendCommand can emit (a two-byte id,
// the op and five empty fields); it bounds the count a command list may
// claim.
const minCommandLen = 8

// AppendCommands appends a counted list of commands.
func AppendCommands(b []byte, cmds []command.Command) []byte {
	b = AppendUvarint(b, uint64(len(cmds)))
	for _, cmd := range cmds {
		b = AppendCommand(b, cmd)
	}
	return b
}

// Reader walks one encoded buffer. The first malformed field latches Err;
// every later read returns a zero value, so callers decode a whole
// structure and check Err once. Decoded strings and byte slices are
// exact-size copies — nothing returned aliases the buffer, which callers
// are free to reuse — and empty ones decode to "" and nil.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns ErrMalformed once any read has failed.
func (r *Reader) Err() error { return r.err }

// Fail latches ErrMalformed, for a field that reads cleanly but breaks a
// rule of the layout around it (an order, a bound).
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = ErrMalformed
	}
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// End finishes a decode that must consume its whole input: unread bytes
// are malformed too. It returns Err.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = ErrMalformed
	}
	return r.err
}

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = ErrMalformed
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uint32 reads a uvarint that must fit 32 bits: no encoder of a 32-bit
// field wrote a wider one, and truncating it would read two encodings as
// one value.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail()
		return 0
	}
	return uint32(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = ErrMalformed
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.err = ErrMalformed
	}
	return v == 1
}

// take returns the next length-prefixed field without copying it.
func (r *Reader) take() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = ErrMalformed
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	p := r.take()
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.take()) }

// Count reads a list length and checks it against the unread bytes, each
// element needing at least minSize of them — so a forged count can never
// size an allocation beyond what the input itself could fill.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.b)/minSize) {
		r.err = ErrMalformed
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Node reads a node ID. A value wider than 32 bits is malformed: no
// AppendNode wrote it, and truncating it would read two encodings as one
// node.
func (r *Reader) Node() timestamp.NodeID {
	return timestamp.NodeID(int32(r.Uint32()))
}

// Timestamp reads a timestamp.
func (r *Reader) Timestamp() timestamp.Timestamp {
	seq := r.Uvarint()
	return timestamp.Timestamp{Seq: seq, Node: r.Node()}
}

// ID reads a command ID.
func (r *Reader) ID() command.ID {
	node := r.Node()
	return command.ID{Node: node, Seq: r.Uvarint()}
}

// IDs reads a counted list of command IDs; an empty list decodes to nil.
func (r *Reader) IDs() []command.ID {
	n := r.Count(2) // an id is at least two uvarint bytes
	if n == 0 {
		return nil
	}
	ids := make([]command.ID, n)
	for i := range ids {
		ids[i] = r.ID()
	}
	return ids
}

// Command reads a command.
func (r *Reader) Command() command.Command {
	var cmd command.Command
	cmd.ID = r.ID()
	cmd.Op = command.Op(r.Byte())
	cmd.Key = r.String()
	cmd.Value = r.Bytes()
	if n := r.Count(1); n > 0 { // a key is at least its length byte
		cmd.ExtraKeys = make([]string, n)
		for i := range cmd.ExtraKeys {
			cmd.ExtraKeys[i] = r.String()
		}
	}
	cmd.Payload = r.Bytes()
	cmd.Epoch = r.Uint32()
	return cmd
}

// Commands reads a counted list of commands; an empty list decodes to nil.
func (r *Reader) Commands() []command.Command {
	n := r.Count(minCommandLen)
	if n == 0 {
		return nil
	}
	cmds := make([]command.Command, n)
	for i := range cmds {
		cmds[i] = r.Command()
	}
	return cmds
}
