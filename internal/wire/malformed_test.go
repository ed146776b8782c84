package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// frame encodes one envelope and returns its bytes.
func frame(t testing.TB, env *Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(env); err != nil {
		t.Fatalf("encode %T: %v", env.Payload, err)
	}
	return buf.Bytes()
}

// withBody frames a raw body, valid or not.
func withBody(body ...byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func samplePropose() *caesar.FastPropose {
	cmd := command.Put("p0-0000", bytes.Repeat([]byte{7}, 16))
	cmd.ID = command.ID{Node: 1, Seq: 42}
	return &caesar.FastPropose{Cmd: cmd, Time: timestamp.Timestamp{Seq: 9, Node: 1}}
}

// TestMalformedFramesAreErrors feeds the decoder everything a broken or
// hostile peer can put on a connection; each must come back as an error —
// the readLoop's cue to drop the link — and never as a panic or a message.
func TestMalformedFramesAreErrors(t *testing.T) {
	good := frame(t, &Envelope{From: 2, Payload: samplePropose()})
	nested := &shard.Envelope{Shard: 1, Payload: &shard.Envelope{Shard: 2, Payload: &caesar.Heartbeat{}}}
	if err := NewEncoder(io.Discard).Encode(&Envelope{Payload: nested}); !errors.Is(err, ErrMessage) {
		t.Fatalf("encode of a nested shard envelope = %v, want ErrMessage", err)
	}
	if err := NewEncoder(io.Discard).Encode(&Envelope{Payload: "not a message"}); !errors.Is(err, ErrMessage) {
		t.Fatalf("encode of an untagged type = %v, want ErrMessage", err)
	}
	type badStream struct {
		name string
		in   []byte
		want error
	}
	cases := []badStream{
		{"empty stream", nil, io.EOF},
		{"truncated header", good[:3], io.ErrUnexpectedEOF},
		{"header only", good[:frameHeader], io.ErrUnexpectedEOF},
		{"oversize length", binary.LittleEndian.AppendUint32(nil, MaxFrame+1), ErrFrame},
		{"empty body", withBody(), ErrFrame},
		{"sender only", withBody(2), ErrFrame},
		{"unknown tag", withBody(2, 0), ErrFrame},
		{"tag past the table", withBody(2, tagShardEnvelope+1), ErrFrame},
		{"trailing garbage", withBody(2, tagHeartbeat, 0, 0, 0, 0, 0xff), ErrFrame},
		{"short heartbeat", withBody(2, tagHeartbeat, 0, 0, 0), ErrFrame},
		{"bool out of range", withBody(2, tagRecover, 0, 0, 0, 2), ErrFrame},
		{"forged id count", withBody(2, tagPurgeBatch, 0xff, 0xff, 0xff, 0xff, 0x0f), ErrFrame},
		{"nested shard envelope", withBody(2, tagShardEnvelope, 1, 0, tagShardEnvelope, 2, 0, tagHeartbeat), ErrFrame},
	}
	// The engine binary-searches predecessor sets and whitelists: one that
	// does not ascend strictly (out of order, or an ID twice) is refused in
	// every message that carries one — though the encoder, which trusts its
	// caller, framed it.
	a, b := command.ID{Node: 0, Seq: 7}, command.ID{Node: 1, Seq: 2}
	for _, set := range [][]command.ID{{b, a}, {a, a}, {a, b, b}} {
		for _, msg := range []any{
			&caesar.FastPropose{Whitelist: set, HasWhitelist: true},
			&caesar.FastProposeReply{Pred: set},
			&caesar.SlowPropose{Pred: set},
			&caesar.SlowProposeReply{Pred: set},
			&caesar.Retry{Pred: set},
			&caesar.RetryReply{Pred: set},
			&caesar.Stable{Pred: set},
			&caesar.RecoverReply{Pred: set},
			&shard.Envelope{Shard: 1, Payload: &caesar.Stable{Pred: set}},
		} {
			cases = append(cases, badStream{fmt.Sprintf("%T with ID set %v", msg, set), frame(t, &Envelope{From: 2, Payload: msg}), ErrFrame})
		}
	}
	for cut := frameHeader + 1; cut < len(good); cut++ {
		// The body is cut short but the header still claims all of it…
		cases = append(cases, badStream{"truncated stream", good[:cut], io.ErrUnexpectedEOF})
		// …or the header is honest about a body that ends mid-field.
		cases = append(cases, badStream{"truncated body", withBody(good[frameHeader:cut]...), ErrFrame})
	}
	for _, tc := range cases {
		var env Envelope
		err := NewDecoder(bytes.NewReader(tc.in)).Decode(&env)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s (%d bytes): err = %v, want %v", tc.name, len(tc.in), err, tc.want)
		}
		if env.Payload != nil {
			t.Errorf("%s: a failed decode left payload %T in the envelope", tc.name, env.Payload)
		}
	}
}

// join concatenates byte slices.
func join(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// TestFieldsWiderThan32BitsAreErrors: a ballot, shard, generation or
// command epoch is the uvarint of 32 bits. A wider value is no encoding of
// any message — truncated, Shard 2³²+1 would read as shard 1 — so the
// frame is refused, while the same frame with the value 1 decodes.
func TestFieldsWiderThan32BitsAreErrors(t *testing.T) {
	put := codec.AppendCommand(nil, command.Put("k", []byte("v")))
	put = put[:len(put)-1] // the command's last field, Epoch 0
	cases := []struct {
		name  string
		frame func(v []byte) []byte
	}{
		{"Ballot", func(v []byte) []byte { return withBody(join([]byte{2, tagRecover}, v, []byte{0, 0})...) }},
		{"Shard", func(v []byte) []byte {
			return withBody(join([]byte{2, tagShardEnvelope}, v, []byte{0, tagHeartbeat, 0, 0, 0, 0})...)
		}},
		{"Gen", func(v []byte) []byte {
			return withBody(join([]byte{2, tagShardEnvelope, 1}, v, []byte{tagHeartbeat, 0, 0, 0, 0})...)
		}},
		{"Command.Epoch", func(v []byte) []byte {
			return withBody(join([]byte{2, tagStable, 0}, put, v, []byte{0, 0, 0})...)
		}},
	}
	narrow, wide := codec.AppendUvarint(nil, 1), codec.AppendUvarint(nil, 1<<32|1)
	for _, tc := range cases {
		var env Envelope
		if err := NewDecoder(bytes.NewReader(tc.frame(narrow))).Decode(&env); err != nil {
			t.Fatalf("%s = 1: %v", tc.name, err)
		}
		env = Envelope{}
		if err := NewDecoder(bytes.NewReader(tc.frame(wide))).Decode(&env); !errors.Is(err, ErrFrame) || env.Payload != nil {
			t.Errorf("%s = 2³²+1: err %v, payload %#v; want ErrFrame and none", tc.name, err, env.Payload)
		}
	}
}

// TestBatchIDsAreAList: acks and purges name commands in whatever order
// they were delivered or fully acknowledged — nothing searches them.
func TestBatchIDsAreAList(t *testing.T) {
	ids := []command.ID{{Node: 2, Seq: 9}, {Node: 0, Seq: 4}, {Node: 2, Seq: 1}}
	for _, msg := range []any{&caesar.StableAckBatch{IDs: ids}, &caesar.PurgeBatch{IDs: ids}} {
		var got Envelope
		if err := NewDecoder(bytes.NewReader(frame(t, &Envelope{Payload: msg}))).Decode(&got); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(got.Payload, msg) {
			t.Fatalf("round trip changed %#v to %#v", msg, got.Payload)
		}
	}
}

// TestEmptySetsDecodeToNil pins that an empty list costs no allocation on
// the receiving side and reads as the nil set the engine sends.
func TestEmptySetsDecodeToNil(t *testing.T) {
	sent := &caesar.FastProposeReply{CmdID: command.ID{Node: 1, Seq: 3}, Pred: []command.ID{}}
	var got Envelope
	if err := NewDecoder(bytes.NewReader(frame(t, &Envelope{Payload: sent}))).Decode(&got); err != nil {
		t.Fatal(err)
	}
	m := got.Payload.(*caesar.FastProposeReply)
	if m.Pred != nil || m.CmdID != sent.CmdID {
		t.Fatalf("decoded %#v, want CmdID %v and a nil Pred", m, sent.CmdID)
	}
}

// TestForgedLengthAllocatesLittle: a header claiming a MaxFrame body,
// followed by a few bytes and a hang-up, must not make the decoder
// allocate the claimed size.
func TestForgedLengthAllocatesLittle(t *testing.T) {
	in := append(binary.LittleEndian.AppendUint32(nil, MaxFrame), make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewDecoder(bytes.NewReader(in)).Decode(&Envelope{})
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a forged %d byte length allocated %d bytes", MaxFrame, grew)
	}
}

// TestLargeFrameRoundTrips crosses the decoder's growth steps and the
// keepBuffer bound in both directions, then checks the pair still moves
// small frames.
func TestLargeFrameRoundTrips(t *testing.T) {
	big := samplePropose()
	big.Cmd.Payload = bytes.Repeat([]byte("x"), 3*keepBuffer+17)
	var buf bytes.Buffer
	enc, dec := NewEncoder(&buf), NewDecoder(&buf)
	for _, payload := range []any{samplePropose(), big, samplePropose()} {
		if err := enc.Encode(&Envelope{From: 4, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		var got Envelope
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Payload, payload) {
			t.Fatalf("%d byte payload diverged", len(payload.(*caesar.FastPropose).Cmd.Payload))
		}
	}
}
