package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/rebalance"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// everyMessage returns one instance of every message the codec has a tag
// for. Keep in sync with the tag table — TestEveryMessageRoundTrips counts
// them so an engine gaining a message without a codec case fails loudly.
func everyMessage() []any {
	return []any{
		// CAESAR.
		&caesar.FastPropose{}, &caesar.FastProposeReply{}, &caesar.SlowPropose{},
		&caesar.SlowProposeReply{}, &caesar.Retry{}, &caesar.RetryReply{},
		&caesar.Stable{}, &caesar.Recover{}, &caesar.RecoverReply{},
		&caesar.StableAckBatch{}, &caesar.PurgeBatch{}, &caesar.Heartbeat{},
		// Sharding.
		&shard.Envelope{Payload: &caesar.Heartbeat{}},
	}
}

// fill populates every settable exported field with distinct non-zero
// values, recursing through structs, slices, maps and pointers, so the
// round trip exercises real payloads rather than zero values. Interface
// fields are left as the caller set them (the codec needs a concrete type).
func fill(v reflect.Value, seed *int) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() && v.CanSet() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		if !v.IsNil() {
			fill(v.Elem(), seed)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(v.Field(i), seed)
			}
		}
	case reflect.Slice:
		if v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		}
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed)
		}
	case reflect.Map:
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		fill(k, seed)
		fill(e, seed)
		v.SetMapIndex(k, e)
	case reflect.String:
		*seed++
		v.SetString(fmt.Sprintf("s%d", *seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*seed++
		v.SetInt(int64(*seed))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*seed++
		v.SetUint(uint64(*seed))
	case reflect.Float32, reflect.Float64:
		*seed++
		v.SetFloat(float64(*seed))
	}
}

func TestEveryMessageRoundTrips(t *testing.T) {
	msgs := everyMessage()
	// 12 CAESAR messages + the shard envelope; see the tag table.
	if want := 13; len(msgs) != want || int(tagShardEnvelope) != want {
		t.Fatalf("everyMessage lists %d messages, the codec has %d tags, want %d of each", len(msgs), tagShardEnvelope, want)
	}
	for _, msg := range msgs {
		seed := 0
		fill(reflect.ValueOf(msg), &seed)
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			var buf bytes.Buffer
			if err := NewEncoder(&buf).Encode(&Envelope{From: 3, Payload: msg}); err != nil {
				t.Fatalf("encode: %v", err)
			}
			var got Envelope
			if err := NewDecoder(&buf).Decode(&got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.From != 3 {
				t.Fatalf("From = %v, want 3", got.From)
			}
			// Encoding does not sort and decoding refuses an unsorted set:
			// equality after the trip also pins that fill's ID lists
			// ascend, the form every sender holds a set in.
			if !reflect.DeepEqual(got.Payload, msg) {
				t.Fatalf("round trip mutated the message:\n sent %#v\n got  %#v", msg, got.Payload)
			}
		})
	}
}

// TestStableByNameRoundTrips: the Stable a leader sends a replica that
// voted names the command by ID alone. It needs no layout of its own — it
// is a command with op 0 and nothing else — and decodes to exactly the
// struct that was sent, with no key or value bytes behind it.
func TestStableByNameRoundTrips(t *testing.T) {
	id := command.ID{Node: 2, Seq: 77}
	sent := &caesar.Stable{Ballot: 3, Cmd: command.Command{ID: id}, Time: timestamp.Timestamp{Seq: 9, Node: 2},
		Pred: []command.ID{{Node: 0, Seq: 4}}}
	var got Envelope
	if err := NewDecoder(bytes.NewReader(frame(t, &Envelope{From: 2, Payload: sent}))).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	m, ok := got.Payload.(*caesar.Stable)
	if !ok || !reflect.DeepEqual(m, sent) {
		t.Fatalf("round trip diverged: sent %#v, got %#v", sent, got.Payload)
	}
	if m.Cmd.Key != "" || m.Cmd.Value != nil || m.Cmd.Payload != nil || m.Cmd.Op != 0 {
		t.Fatalf("a Stable by name decoded a command body: %#v", m.Cmd)
	}
}

// TestStreamCarriesMixedTraffic pins the streaming behaviour tcpnet relies
// on: one encoder/decoder pair moves many envelopes of different types in
// order over a single connection.
func TestStreamCarriesMixedTraffic(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	sent := []*Envelope{
		{From: 0, Payload: &caesar.FastPropose{Ballot: 7, Cmd: command.Put("k", []byte("v"))}},
		{From: 1, Payload: &shard.Envelope{Shard: 2, Payload: &caesar.Stable{Ballot: 9}}},
		{From: 2, Payload: &caesar.Recover{Ballot: 11}},
		{From: 3, Payload: &caesar.Heartbeat{}},
	}
	for _, env := range sent {
		if err := enc.Encode(env); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range sent {
		var got Envelope
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.From != want.From || !reflect.DeepEqual(got.Payload, want.Payload) {
			t.Fatalf("message %d diverged: sent %#v, got %#v", i, want, got)
		}
	}
}

// TestDecodedEnvelopesAreNeverReused: a decoder takes shard envelopes from
// chunks and never hands a slot out twice, so an envelope a receiver still
// holds keeps its shard, generation and message however many frames the
// decoder reads after it.
func TestDecodedEnvelopesAreNeverReused(t *testing.T) {
	const frames = 3*shard.EnvelopeChunk + 5
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < frames; i++ {
		env := &shard.Envelope{Shard: int32(i % 7), Gen: int32(i), Payload: &caesar.Recover{Ballot: uint32(i)}}
		if err := enc.Encode(&Envelope{From: 1, Payload: env}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	got := make([]*shard.Envelope, frames)
	for i := range got {
		var out Envelope
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		got[i] = out.Payload.(*shard.Envelope)
	}
	seen := make(map[*shard.Envelope]bool)
	for i, env := range got {
		if seen[env] {
			t.Fatalf("frame %d: envelope %p was handed out twice", i, env)
		}
		seen[env] = true
		if m, ok := env.Payload.(*caesar.Recover); !ok || env.Shard != int32(i%7) || env.Gen != int32(i) || m.Ballot != uint32(i) {
			t.Fatalf("frame %d: envelope now holds shard %d gen %d payload %#v", i, env.Shard, env.Gen, env.Payload)
		}
	}
}

// TestCrossShardPayloadsRoundTrip pins the encoding path of the
// cross-shard commit layer: pieces and abort markers ride as opaque
// Payload bytes inside ordinary engine commands, so a sharded
// multi-process deployment only works if those bytes cross unchanged.
func TestCrossShardPayloadsRoundTrip(t *testing.T) {
	xid := xshard.XID{Node: 2, Seq: 9}
	ops := []command.Command{command.Put("a", []byte("1")), command.Add("b", 5)}
	piece, err := xshard.PieceCommand(xid, []int32{0, 3}, ops, ops[:1])
	if err != nil {
		t.Fatalf("piece: %v", err)
	}
	abort, err := xshard.AbortCommand(xid, 3, ops[1:])
	if err != nil {
		t.Fatalf("abort: %v", err)
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, cmd := range []command.Command{piece, abort} {
		env := &Envelope{From: 1, Payload: &shard.Envelope{Shard: 3, Payload: &caesar.FastPropose{Cmd: cmd}}}
		if err := enc.Encode(env); err != nil {
			t.Fatalf("encode %v: %v", cmd.Op, err)
		}
	}
	dec := NewDecoder(&buf)

	var gotPiece Envelope
	if err := dec.Decode(&gotPiece); err != nil {
		t.Fatalf("decode piece: %v", err)
	}
	cmd := gotPiece.Payload.(*shard.Envelope).Payload.(*caesar.FastPropose).Cmd
	p, err := xshard.DecodePiece(cmd.Payload)
	if err != nil {
		t.Fatalf("DecodePiece: %v", err)
	}
	if p.XID != xid || len(p.Ops) != 2 || !reflect.DeepEqual(p.Groups, []int32{0, 3}) {
		t.Fatalf("piece round trip diverged: %#v", p)
	}
	if cmd.Key != "a" || len(cmd.ExtraKeys) != 0 {
		t.Fatalf("piece keys = %q + %v, want the group's share only", cmd.Key, cmd.ExtraKeys)
	}

	var gotAbort Envelope
	if err := dec.Decode(&gotAbort); err != nil {
		t.Fatalf("decode abort: %v", err)
	}
	cmd = gotAbort.Payload.(*shard.Envelope).Payload.(*caesar.FastPropose).Cmd
	a, err := xshard.DecodeAbort(cmd.Payload)
	if err != nil {
		t.Fatalf("DecodeAbort: %v", err)
	}
	if a.XID != xid || a.Group != 3 {
		t.Fatalf("abort round trip diverged: %#v", a)
	}
}

// TestResizeFenceRoundTrip pins the multi-process encoding of live
// resizes: the fence command's marker payload, the routing-epoch stamp
// every sharded submission carries, and the mux envelope's generation tag
// must all survive the wire unchanged.
func TestResizeFenceRoundTrip(t *testing.T) {
	marker := rebalance.Marker{Epoch: 3, Shards: 8, PrevShards: 4}
	fence, err := rebalance.FenceCommand(marker)
	if err != nil {
		t.Fatalf("fence: %v", err)
	}
	stamped := command.Put("k", []byte("v"))
	stamped.Epoch = 3

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, cmd := range []command.Command{fence, stamped} {
		env := &Envelope{From: 1, Payload: &shard.Envelope{Shard: 2, Gen: 3, Payload: &caesar.FastPropose{Cmd: cmd}}}
		if err := enc.Encode(env); err != nil {
			t.Fatalf("encode %v: %v", cmd.Op, err)
		}
	}
	dec := NewDecoder(&buf)

	var gotFence Envelope
	if err := dec.Decode(&gotFence); err != nil {
		t.Fatalf("decode fence: %v", err)
	}
	senv := gotFence.Payload.(*shard.Envelope)
	if senv.Shard != 2 || senv.Gen != 3 {
		t.Fatalf("mux envelope tags diverged: shard %d gen %d", senv.Shard, senv.Gen)
	}
	cmd := senv.Payload.(*caesar.FastPropose).Cmd
	if cmd.Op != command.OpFence {
		t.Fatalf("fence op diverged: %v", cmd.Op)
	}
	m, err := rebalance.DecodeMarker(cmd.Payload)
	if err != nil {
		t.Fatalf("DecodeMarker: %v", err)
	}
	if m != marker {
		t.Fatalf("marker round trip diverged: %+v", m)
	}

	var gotStamped Envelope
	if err := dec.Decode(&gotStamped); err != nil {
		t.Fatalf("decode stamped: %v", err)
	}
	cmd = gotStamped.Payload.(*shard.Envelope).Payload.(*caesar.FastPropose).Cmd
	if cmd.Epoch != 3 {
		t.Fatalf("routing epoch stamp lost: %d", cmd.Epoch)
	}
}
