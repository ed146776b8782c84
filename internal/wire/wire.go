// Package wire defines the on-the-wire encoding for multi-process
// deployments: length-framed binary envelopes carrying CAESAR's twelve
// protocol messages and the shard envelope — the only engine any binary
// puts on TCP (the baseline engines run in-process only). In-process
// transports pass payloads by reference and never touch this package.
//
// A stream is a sequence of frames, each
//
//	[u32 little-endian body length ≤ MaxFrame][body]
//	body    = node From, message
//	message = tag byte, then the message's fields in declaration order
//
// with the field primitives of internal/codec (uvarint, length-prefixed
// bytes, node, timestamp, id, ids, command — the WAL's record codec is
// the same code). A bool is one byte, 0 or 1; a Status is one byte; a
// Ballot is a uvarint.
//
//	tag  message            fields
//	 1   FastPropose        Ballot, Cmd command, Time timestamp, Whitelist ids, HasWhitelist bool
//	 2   FastProposeReply   Ballot, CmdID id, Time timestamp, Pred ids, NACK bool
//	 3   SlowPropose        Ballot, Cmd command, Time timestamp, Pred ids
//	 4   SlowProposeReply   Ballot, CmdID id, Time timestamp, Pred ids, NACK bool
//	 5   Retry              Ballot, Cmd command, Time timestamp, Pred ids
//	 6   RetryReply         Ballot, CmdID id, Time timestamp, Pred ids
//	 7   Stable             Ballot, Cmd command, Time timestamp, Pred ids
//	                        (to a replica that voted, Cmd is the ID alone:
//	                        op 0 and empty key, value and payload)
//	 8   Recover            Ballot, CmdID id
//	 9   RecoverReply       Ballot, CmdID id, Nop bool, Cmd command, Status byte,
//	                        Time timestamp, Pred ids, TupleBallot, Forced bool
//	10   StableAckBatch     IDs ids
//	11   PurgeBatch         IDs ids
//	12   Heartbeat          Low timestamp, Seen timestamp
//	13   shard.Envelope     uvarint Shard, uvarint Gen, message (tags 1–12 only)
//
// Cross-shard pieces, abort markers, batches and resize fences are not
// messages: they ride inside a command's opaque Payload bytes and need no
// case here. A message type without a case cannot be encoded — adding one
// to the engine means adding a tag, an append arm and a read arm.
//
// Decoding never trusts the input: a length or count is checked against
// the bytes actually present before anything is sized by it, an unknown
// tag, a short body or bytes left over after the message are errors, a
// Pred or Whitelist that is not strictly ascending is an error (the engine
// binary-searches them; IDs in an ack or purge batch are a list, in any
// order), and
// decoded keys, values and payloads are exact-size copies, so the
// decoder's frame buffer is never pinned by a message.
//
// The per-operation messages — FastPropose, FastProposeReply and Stable —
// and the shard envelopes around them are decoded into slots of per-link
// chunks (internal/chunk), one set per Decoder, which never reuses a slot:
// a decoded struct pins its chunk, not the frame buffer. The other nine
// messages are allocated one by one, RecoverReply because recovery keeps
// it. Every decoded ID list — a Pred, a Whitelist, the IDs of an ack or
// purge batch — is carved from the Decoder's chunk of IDs too, capped at
// its length (an append reallocates); one longer than a quarter chunk (32
// IDs) is allocated alone.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Envelope frames one protocol message.
type Envelope struct {
	From    timestamp.NodeID
	Payload any
}

// MaxFrame bounds a frame body, so a corrupt length prefix cannot make a
// decoder wait for (or buffer) gigabytes. It matches the WAL's record
// bound: what can be logged can be sent.
const MaxFrame = 64 << 20

// keepBuffer is the largest frame buffer an Encoder or Decoder holds on to
// between frames; one oversized message does not leave its buffer pinned
// to the link for good.
const keepBuffer = 64 << 10

const frameHeader = 4

// ErrMessage reports a payload Encode cannot frame: a type with no tag, a
// shard envelope inside a shard envelope, or a body over MaxFrame. Nothing
// was written, so the stream is still good for the next envelope.
var ErrMessage = errors.New("wire: unencodable message")

// ErrFrame reports a frame that does not decode: length over MaxFrame,
// unknown tag, malformed field or trailing bytes. The stream cannot be
// resynchronised after it.
var ErrFrame = errors.New("wire: malformed frame")

// Message tags. Values are the wire format; never renumber.
const (
	tagFastPropose byte = iota + 1
	tagFastProposeReply
	tagSlowPropose
	tagSlowProposeReply
	tagRetry
	tagRetryReply
	tagStable
	tagRecover
	tagRecoverReply
	tagStableAckBatch
	tagPurgeBatch
	tagHeartbeat
	tagShardEnvelope
)

// Encoder writes envelopes to a stream, one Write per envelope, from a
// buffer it reuses.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode writes one envelope. An ErrMessage leaves the stream untouched;
// any other error is the writer's.
func (e *Encoder) Encode(env *Envelope) error {
	b := append(e.buf[:0], 0, 0, 0, 0) // the length, filled in below
	b = codec.AppendNode(b, env.From)
	b, err := appendMessage(b, env.Payload, false)
	if cap(b) <= keepBuffer {
		e.buf = b[:0]
	}
	if err != nil {
		return err
	}
	body := len(b) - frameHeader
	if body > MaxFrame {
		return fmt.Errorf("%w: %d byte frame exceeds the %d byte bound", ErrMessage, body, MaxFrame)
	}
	binary.LittleEndian.PutUint32(b, uint32(body))
	_, err = e.w.Write(b)
	return err
}

func appendBallot(b []byte, ballot uint32) []byte {
	return codec.AppendUvarint(b, uint64(ballot))
}

// appendMessage appends payload's tag and fields. nested is true inside a
// shard envelope, which may not hold another.
func appendMessage(b []byte, payload any, nested bool) ([]byte, error) {
	switch m := payload.(type) {
	case *caesar.FastPropose:
		b = appendBallot(append(b, tagFastPropose), m.Ballot)
		b = codec.AppendCommand(b, m.Cmd)
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Whitelist)
		b = codec.AppendBool(b, m.HasWhitelist)
	case *caesar.FastProposeReply:
		b = appendBallot(append(b, tagFastProposeReply), m.Ballot)
		b = codec.AppendID(b, m.CmdID)
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Pred)
		b = codec.AppendBool(b, m.NACK)
	case *caesar.SlowPropose:
		b = appendBallot(append(b, tagSlowPropose), m.Ballot)
		b = codec.AppendCommand(b, m.Cmd)
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Pred)
	case *caesar.SlowProposeReply:
		b = appendBallot(append(b, tagSlowProposeReply), m.Ballot)
		b = codec.AppendID(b, m.CmdID)
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Pred)
		b = codec.AppendBool(b, m.NACK)
	case *caesar.Retry:
		b = appendBallot(append(b, tagRetry), m.Ballot)
		b = codec.AppendCommand(b, m.Cmd)
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Pred)
	case *caesar.RetryReply:
		b = appendBallot(append(b, tagRetryReply), m.Ballot)
		b = codec.AppendID(b, m.CmdID)
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Pred)
	case *caesar.Stable:
		b = appendBallot(append(b, tagStable), m.Ballot)
		b = codec.AppendCommand(b, m.Cmd)
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Pred)
	case *caesar.Recover:
		b = appendBallot(append(b, tagRecover), m.Ballot)
		b = codec.AppendID(b, m.CmdID)
	case *caesar.RecoverReply:
		b = appendBallot(append(b, tagRecoverReply), m.Ballot)
		b = codec.AppendID(b, m.CmdID)
		b = codec.AppendBool(b, m.Nop)
		b = codec.AppendCommand(b, m.Cmd)
		b = append(b, byte(m.Status))
		b = codec.AppendTimestamp(b, m.Time)
		b = codec.AppendIDs(b, m.Pred)
		b = appendBallot(b, m.TupleBallot)
		b = codec.AppendBool(b, m.Forced)
	case *caesar.StableAckBatch:
		b = codec.AppendIDs(append(b, tagStableAckBatch), m.IDs)
	case *caesar.PurgeBatch:
		b = codec.AppendIDs(append(b, tagPurgeBatch), m.IDs)
	case *caesar.Heartbeat:
		b = codec.AppendTimestamp(append(b, tagHeartbeat), m.Low)
		b = codec.AppendTimestamp(b, m.Seen)
	case *shard.Envelope:
		if nested {
			return b, fmt.Errorf("%w: shard envelope inside a shard envelope", ErrMessage)
		}
		b = append(b, tagShardEnvelope)
		b = codec.AppendUvarint(b, uint64(uint32(m.Shard)))
		b = codec.AppendUvarint(b, uint64(uint32(m.Gen)))
		return appendMessage(b, m.Payload, true)
	default:
		return b, fmt.Errorf("%w: no tag for %T", ErrMessage, payload)
	}
	return b, nil
}

// Decoder reads envelopes from a stream. It reads exactly one frame per
// Decode and nothing past it, so the reader may be shared with whatever
// counts or follows the frames; hand it a buffered reader.
type Decoder struct {
	r   io.Reader
	hdr [frameHeader]byte
	buf []byte
	// The chunks need no lock: a decoder has one reader.
	proposes chunk.Of[caesar.FastPropose]
	replies  chunk.Of[caesar.FastProposeReply]
	stables  chunk.Of[caesar.Stable]
	envs     chunk.Of[shard.Envelope]
	sets     chunk.Slices[command.ID]
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// Decode reads one envelope. It returns io.EOF when the stream ends on a
// frame boundary, io.ErrUnexpectedEOF when it ends inside a frame, the
// reader's error otherwise, and an ErrFrame for bytes that are not a
// frame.
func (d *Decoder) Decode(env *Envelope) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(d.hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: length %d exceeds the %d byte bound", ErrFrame, n, MaxFrame)
	}
	body, err := d.readBody(int(n))
	if err != nil {
		return err
	}
	r := msgReader{Reader: codec.NewReader(body), sets: &d.sets}
	from := r.Node()
	payload, err := d.readMessage(&r, false)
	if err != nil {
		return err
	}
	if r.Err() != nil {
		return fmt.Errorf("%w: %T: %v", ErrFrame, payload, r.Err())
	}
	if r.unsorted {
		return fmt.Errorf("%w: %T: ID set not strictly ascending", ErrFrame, payload)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %T", ErrFrame, r.Len(), payload)
	}
	env.From, env.Payload = from, payload
	return nil
}

// readBody reads an n-byte body into the reused buffer. The buffer grows
// with the bytes that actually arrive (doubling, from 4 KiB), never to a
// claimed length up front, so a forged prefix costs the sender the bytes
// it claims.
func (d *Decoder) readBody(n int) ([]byte, error) {
	buf := d.buf[:0]
	for len(buf) < n {
		have := len(buf)
		step := min(n-have, max(cap(buf)-have, have, 4<<10))
		buf = slices.Grow(buf, step)[:have+step]
		if _, err := io.ReadFull(d.r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if cap(buf) <= keepBuffer {
		d.buf = buf[:0]
	} else {
		d.buf = nil
	}
	return buf, nil
}

// msgReader reads one frame's fields, carving ID sets from the decoder's
// chunk, and remembers whether one of them broke the order the engine
// relies on.
type msgReader struct {
	codec.Reader
	sets     *chunk.Slices[command.ID]
	unsorted bool
}

// idSet reads a predecessor set or whitelist: ids that must ascend
// strictly. Encoding does not sort — senders hold sets in that form.
func (r *msgReader) idSet() []command.ID {
	ids := r.IDs(r.sets)
	r.unsorted = r.unsorted || !command.IsSortedIDs(ids)
	return ids
}

func readBallot(r *msgReader) uint32 { return r.Uint32() }

// readMessage reads one tagged message; nested as in appendMessage. The
// caller checks r.Err once the whole frame is read.
func (d *Decoder) readMessage(r *msgReader, nested bool) (any, error) {
	switch tag := r.Byte(); tag {
	case tagFastPropose:
		m := d.proposes.Next()
		m.Ballot = readBallot(r)
		m.Cmd = r.Command()
		m.Time = r.Timestamp()
		m.Whitelist = r.idSet()
		m.HasWhitelist = r.Bool()
		return m, nil
	case tagFastProposeReply:
		m := d.replies.Next()
		m.Ballot = readBallot(r)
		m.CmdID = r.ID()
		m.Time = r.Timestamp()
		m.Pred = r.idSet()
		m.NACK = r.Bool()
		return m, nil
	case tagSlowPropose:
		m := &caesar.SlowPropose{Ballot: readBallot(r)}
		m.Cmd = r.Command()
		m.Time = r.Timestamp()
		m.Pred = r.idSet()
		return m, nil
	case tagSlowProposeReply:
		m := &caesar.SlowProposeReply{Ballot: readBallot(r)}
		m.CmdID = r.ID()
		m.Time = r.Timestamp()
		m.Pred = r.idSet()
		m.NACK = r.Bool()
		return m, nil
	case tagRetry:
		m := &caesar.Retry{Ballot: readBallot(r)}
		m.Cmd = r.Command()
		m.Time = r.Timestamp()
		m.Pred = r.idSet()
		return m, nil
	case tagRetryReply:
		m := &caesar.RetryReply{Ballot: readBallot(r)}
		m.CmdID = r.ID()
		m.Time = r.Timestamp()
		m.Pred = r.idSet()
		return m, nil
	case tagStable:
		m := d.stables.Next()
		m.Ballot = readBallot(r)
		m.Cmd = r.Command()
		m.Time = r.Timestamp()
		m.Pred = r.idSet()
		return m, nil
	case tagRecover:
		m := &caesar.Recover{Ballot: readBallot(r)}
		m.CmdID = r.ID()
		return m, nil
	case tagRecoverReply:
		m := &caesar.RecoverReply{Ballot: readBallot(r)}
		m.CmdID = r.ID()
		m.Nop = r.Bool()
		m.Cmd = r.Command()
		m.Status = caesar.Status(r.Byte())
		m.Time = r.Timestamp()
		m.Pred = r.idSet()
		m.TupleBallot = readBallot(r)
		m.Forced = r.Bool()
		return m, nil
	case tagStableAckBatch:
		return &caesar.StableAckBatch{IDs: r.IDs(r.sets)}, nil
	case tagPurgeBatch:
		return &caesar.PurgeBatch{IDs: r.IDs(r.sets)}, nil
	case tagHeartbeat:
		m := &caesar.Heartbeat{Low: r.Timestamp()}
		m.Seen = r.Timestamp()
		return m, nil
	case tagShardEnvelope:
		if nested {
			return nil, fmt.Errorf("%w: shard envelope inside a shard envelope", ErrFrame)
		}
		m := d.envs.Next()
		m.Shard = int32(r.Uint32())
		m.Gen = int32(r.Uint32())
		payload, err := d.readMessage(r, true)
		m.Payload = payload
		return m, err
	default:
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: empty body", ErrFrame)
		}
		return nil, fmt.Errorf("%w: unknown tag %d", ErrFrame, tag)
	}
}
