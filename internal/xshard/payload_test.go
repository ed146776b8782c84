package xshard

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// twoPutTx is the transaction lan3-mixed4g issues: two 16-byte puts on
// zipfian keys that live in different groups.
func twoPutTx() (XID, []int32, []command.Command) {
	v := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x30, 0x39}
	return XID{Node: 1, Seq: 300}, []int32{0, 3}, []command.Command{
		command.Put("z00017", v),
		command.Put("z00042", v),
	}
}

// The bytes below are the format: a payload sits in WAL command records
// and crosses the wire between replicas, so a change that breaks this test
// is a new segment generation (wal's segMagic), not a refactor.
//
//	piece  01 | 01 ac02 (XID 1.300) | 02 00 03 (groups) | 02 (ops) |
//	       2 × command (zero id, Op 1, key, value, no extra keys, no
//	       payload, epoch 0)
//	abort  02 | 01 ac02 | 03 (group)
const (
	goldenPiece = "0101ac020200030200000106" + "7a3030303137" + "10" + "00000000000000010000000000003039" + "000000" +
		"00000106" + "7a3030303432" + "10" + "00000000000000010000000000003039" + "000000"
	goldenAbort = "0201ac0203"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPayloadFormatIsPinned(t *testing.T) {
	xid, groups, ops := twoPutTx()
	if got := hex.EncodeToString(encodePiece(xid, groups, ops)); got != goldenPiece {
		t.Errorf("piece encodes to\n %s, the format in logs and on the wire is\n %s", got, goldenPiece)
	}
	p, err := DecodePiece(unhex(t, goldenPiece))
	if want := (&Piece{XID: xid, Groups: groups, Ops: ops}); err != nil || !reflect.DeepEqual(p, want) {
		t.Errorf("golden piece decodes to %+v, %v; want %+v", p, err, want)
	}

	marker, _ := AbortCommand(xid, 3, ops[1:])
	if got := hex.EncodeToString(marker.Payload); got != goldenAbort {
		t.Errorf("abort marker encodes to %s, the format is %s", got, goldenAbort)
	}
	a, err := DecodeAbort(unhex(t, goldenAbort))
	if want := (&Abort{XID: xid, Group: 3}); err != nil || !reflect.DeepEqual(a, want) {
		t.Errorf("golden abort marker decodes to %+v, %v; want %+v", a, err, want)
	}
}

// randomCommand draws a member command with every field shape the codec
// distinguishes: zero and negative-node ids, nil and empty values, extra
// keys, epoch stamps and, down to depth, a packed batch as a member.
func randomCommand(rng *rand.Rand, depth int) command.Command {
	blob := func() []byte {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		b := make([]byte, 1+rng.Intn(40))
		rng.Read(b)
		return b
	}
	if depth > 0 && rng.Intn(4) == 0 {
		members := make([]command.Command, rng.Intn(3))
		for i := range members {
			members[i] = randomCommand(rng, depth-1)
		}
		packed, _ := batch.Pack(members)
		return packed
	}
	cmd := command.Command{
		ID:    command.ID{Node: nodeOf(rng), Seq: rng.Uint64() >> uint(rng.Intn(64))},
		Op:    command.Op(rng.Intn(4)),
		Key:   string(blob()),
		Value: blob(),
		Epoch: uint32(rng.Uint64() >> uint(32+rng.Intn(32))),
	}
	for i := rng.Intn(3); i > 0; i-- {
		cmd.ExtraKeys = append(cmd.ExtraKeys, string(blob()))
	}
	return cmd
}

// canonical is what a decoder returns for cmds: the codec reads every
// empty byte slice and list back as nil.
func canonical(cmds []command.Command) []command.Command {
	if len(cmds) == 0 {
		return nil
	}
	out := append([]command.Command(nil), cmds...)
	for i := range out {
		if len(out[i].Value) == 0 {
			out[i].Value = nil
		}
		if len(out[i].Payload) == 0 {
			out[i].Payload = nil
		}
		if len(out[i].ExtraKeys) == 0 {
			out[i].ExtraKeys = nil
		}
	}
	return out
}

func TestPayloadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		xid := XID{Node: nodeOf(rng), Seq: rng.Uint64() >> uint(rng.Intn(64))}
		var groups []int32
		for j := rng.Intn(4); j > 0; j-- {
			groups = append(groups, rng.Int31n(64))
		}
		ops := make([]command.Command, rng.Intn(5))
		for j := range ops {
			ops[j] = randomCommand(rng, 2)
		}
		p, err := DecodePiece(encodePiece(xid, groups, ops))
		if want := (&Piece{XID: xid, Groups: groups, Ops: canonical(ops)}); err != nil || !reflect.DeepEqual(p, want) {
			t.Fatalf("piece %d: decode(encode(x)) = %+v, %v; x = %+v", i, p, err, want)
		}
		want := Abort{XID: xid, Group: int32(rng.Uint32())}
		marker, _ := AbortCommand(want.XID, want.Group, ops)
		if a, err := DecodeAbort(marker.Payload); err != nil || *a != want {
			t.Fatalf("abort %d: decode(encode(x)) = %+v, %v; x = %+v", i, a, err, want)
		}
	}
}

// nodeOf draws a node id, one in four negative.
func nodeOf(rng *rand.Rand) timestamp.NodeID {
	n := timestamp.NodeID(rng.Int31n(64))
	if rng.Intn(4) == 0 {
		n = -n - 1
	}
	return n
}

// TestDamagedPayloadsAreRefused: every proper prefix of a payload, and a
// payload with a byte appended, is an error — never a panic, never a
// shorter transaction.
func TestDamagedPayloadsAreRefused(t *testing.T) {
	for _, c := range []struct {
		name, golden string
		decode       func([]byte) error
	}{
		{"piece", goldenPiece, func(b []byte) error { _, err := DecodePiece(b); return err }},
		{"abort", goldenAbort, func(b []byte) error { _, err := DecodeAbort(b); return err }},
	} {
		raw := unhex(t, c.golden)
		for cut := 0; cut < len(raw); cut++ {
			if err := c.decode(raw[:cut:cut]); !errors.Is(err, codec.ErrMalformed) {
				t.Errorf("%s: %d-byte prefix of %d: %v, want ErrMalformed", c.name, cut, len(raw), err)
			}
		}
		if err := c.decode(append(raw, 0)); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%s: trailing byte: %v, want ErrMalformed", c.name, err)
		}
	}
}

// TestForgedCountsAllocateNothing: a count the input could not fill is
// malformed before a slice is sized from it.
func TestForgedCountsAllocateNothing(t *testing.T) {
	huge := codec.AppendUvarint(nil, 1<<62)
	xid, _, _ := twoPutTx()
	header := appendHeader(nil, kindPiece, xid)
	forgedGroups := append(bytes.Clone(header), huge...)
	forgedOps := append(append(bytes.Clone(header), 0), huge...) // no groups, 2^62 ops
	for name, payload := range map[string][]byte{"groups": forgedGroups, "ops": forgedOps} {
		payload = append(payload, bytes.Repeat([]byte{0}, 64)...)
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = DecodePiece(payload) })
		if !errors.Is(err, codec.ErrMalformed) || allocs != 0 {
			t.Errorf("%s count of 2^62: %v after %v allocations, want ErrMalformed after none", name, err, allocs)
		}
	}
}

// TestPayloadKindsAreNotConfused: the kind byte refuses a piece where a
// marker is expected, and the reverse.
func TestPayloadKindsAreNotConfused(t *testing.T) {
	if a, err := DecodeAbort(unhex(t, goldenPiece)); err == nil {
		t.Errorf("DecodeAbort read a piece as %+v", a)
	}
	if p, err := DecodePiece(unhex(t, goldenAbort)); err == nil {
		t.Errorf("DecodePiece read an abort marker as %+v", p)
	}
	if _, err := DecodePiece([]byte{9, 1, 1, 0, 0}); err == nil {
		t.Error("DecodePiece accepted an unknown kind byte")
	}
}

// TestDecodedPieceOwnsItsMemory: a payload buffer may be reused (the wire
// decoder's frame, the log's replay buffer) once the piece is decoded.
func TestDecodedPieceOwnsItsMemory(t *testing.T) {
	xid, groups, ops := twoPutTx()
	raw := unhex(t, goldenPiece)
	p, err := DecodePiece(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xff
	}
	if want := (&Piece{XID: xid, Groups: groups, Ops: ops}); !reflect.DeepEqual(p, want) {
		t.Fatalf("overwriting the payload changed the piece to %+v", p)
	}
}

// FuzzDecodePayload: a payload arrives from a peer, so both decoders must
// survive any bytes, and whatever one accepts must re-encode to bytes
// that decode to the same value.
func FuzzDecodePayload(f *testing.F) {
	f.Add(unhex(f, goldenPiece))
	f.Add(unhex(f, goldenAbort))
	f.Fuzz(func(t *testing.T, in []byte) {
		if p, err := DecodePiece(in); err == nil {
			again, err := DecodePiece(encodePiece(p.XID, p.Groups, p.Ops))
			if err != nil || !reflect.DeepEqual(p, again) {
				t.Fatalf("second trip changed the piece:\n first  %+v\n second %+v, %v", p, again, err)
			}
		}
		if a, err := DecodeAbort(in); err == nil {
			marker, _ := AbortCommand(a.XID, a.Group, nil)
			again, err := DecodeAbort(marker.Payload)
			if err != nil || *a != *again {
				t.Fatalf("second trip changed the abort marker: %+v, then %+v, %v", a, again, err)
			}
		}
	})
}

func BenchmarkPieceEncode(b *testing.B) {
	xid, groups, ops := twoPutTx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PieceCommand(xid, groups, ops, ops[:1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPieceDecode(b *testing.B) {
	xid, groups, ops := twoPutTx()
	pc, err := PieceCommand(xid, groups, ops, ops[:1])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pc.Payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePiece(pc.Payload); err != nil {
			b.Fatal(err)
		}
	}
}
