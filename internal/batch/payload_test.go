package batch

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// twoPuts is the batch lan3-mixed4g packs for a transaction: two 16-byte
// puts on zipfian keys.
func twoPuts() []command.Command {
	v := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x30, 0x39}
	return []command.Command{command.Put("z00017", v), command.Put("z00042", v)}
}

// goldenBatch is the format: a batch payload sits in WAL command records
// (and inside cross-shard pieces), so a change that breaks this test is a
// new segment generation (wal's segMagic), not a refactor. 02 members,
// each a codec command: zero id, Op 1, key, value, no extra keys, no
// payload, epoch 0.
const goldenBatch = "02" +
	"00000106" + "7a3030303137" + "10" + "00000000000000010000000000003039" + "000000" +
	"00000106" + "7a3030303432" + "10" + "00000000000000010000000000003039" + "000000"

func goldenBytes(t testing.TB) []byte {
	t.Helper()
	b, err := hex.DecodeString(goldenBatch)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchFormatIsPinned(t *testing.T) {
	packed, err := Pack(twoPuts())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(packed.Payload); got != goldenBatch {
		t.Errorf("batch encodes to\n %s, the format in logs and on the wire is\n %s", got, goldenBatch)
	}
	if packed.Key != "z00017" || !reflect.DeepEqual(packed.ExtraKeys, []string{"z00042"}) {
		t.Errorf("batch keyed %q + %q, want the members' keys in their order", packed.Key, packed.ExtraKeys)
	}
	got, err := Unpack(command.Command{Op: command.OpBatch, Payload: goldenBytes(t)})
	if err != nil || !reflect.DeepEqual(got, twoPuts()) {
		t.Errorf("golden batch unpacks to %+v, %v", got, err)
	}
}

// TestPackIsDeterministic: the batch command is a function of its members
// — same bytes, same key order (the members' first-seen order) on every
// call, so a trace, a contention charge or a replayed seed sees one
// command, not a map iteration.
func TestPackIsDeterministic(t *testing.T) {
	members := []command.Command{
		command.Put("d", nil), command.Put("b", nil), command.Add("d", 1),
		{Op: command.OpPut, Key: "a", ExtraKeys: []string{"b", "c"}}, command.Noop(), command.Put("e", nil),
	}
	first, _ := Pack(members)
	if got, want := first.Keys(), []string{"d", "b", "a", "c", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch keys %q, want the members' first-seen order %q", got, want)
	}
	for i := 0; i < 100; i++ {
		if again, _ := Pack(members); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d packed %+v, the first call %+v", i, again, first)
		}
	}
}

// randomCommand draws a member with every field shape the codec
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
		packed, _ := Pack(members)
		return packed
	}
	cmd := command.Command{
		ID:    command.ID{Node: timestamp.NodeID(rng.Int31n(64) - 16), Seq: rng.Uint64() >> uint(rng.Intn(64))},
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

// canonical is what Unpack returns for cmds: the codec reads every empty
// byte slice and list back as nil.
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

func TestPackUnpackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		members := make([]command.Command, rng.Intn(6))
		for j := range members {
			members[j] = randomCommand(rng, 2)
		}
		packed, err := Pack(members)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unpack(packed)
		if want := canonical(members); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: Unpack(Pack(x)) = %+v, %v; x = %+v", i, got, err, want)
		}
	}
}

// TestDamagedBatchesAreRefused: every proper prefix of a payload, and a
// payload with a byte appended, is an error — never a panic, never a
// shorter batch.
func TestDamagedBatchesAreRefused(t *testing.T) {
	raw := goldenBytes(t)
	unpack := func(b []byte) error {
		_, err := Unpack(command.Command{Op: command.OpBatch, Payload: b})
		return err
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := unpack(raw[:cut:cut]); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%d-byte prefix of %d: %v, want ErrMalformed", cut, len(raw), err)
		}
	}
	if err := unpack(append(raw, 0)); !errors.Is(err, codec.ErrMalformed) {
		t.Errorf("trailing byte: %v, want ErrMalformed", err)
	}
}

// TestForgedMemberCountAllocatesNothing: a count the payload could not
// fill is malformed before a slice is sized from it.
func TestForgedMemberCountAllocatesNothing(t *testing.T) {
	forged := command.Command{Op: command.OpBatch,
		Payload: append(codec.AppendUvarint(nil, 1<<62), bytes.Repeat([]byte{0}, 64)...)}
	var err error
	allocs := testing.AllocsPerRun(10, func() { _, err = Unpack(forged) })
	if !errors.Is(err, codec.ErrMalformed) || allocs != 0 {
		t.Errorf("member count of 2^62: %v after %v allocations, want ErrMalformed after none", err, allocs)
	}
}

// FuzzUnpack: a batch arrives from a peer, so Unpack must survive any
// bytes, what it accepts must re-pack to bytes that unpack to the same
// members, and flattening them — which unpacks nested members — must
// come to an end.
func FuzzUnpack(f *testing.F) {
	f.Add(goldenBytes(f))
	nested, _ := Pack(twoPuts())
	outer, _ := Pack([]command.Command{nested, command.Put("k", nil)})
	f.Add(outer.Payload)
	f.Fuzz(func(t *testing.T, in []byte) {
		members, err := Unpack(command.Command{Op: command.OpBatch, Payload: in})
		if err != nil {
			return
		}
		repacked, _ := Pack(members)
		again, err := Unpack(repacked)
		if err != nil || !reflect.DeepEqual(members, again) {
			t.Fatalf("second trip changed the batch:\n first  %+v\n second %+v, %v", members, again, err)
		}
		for _, c := range flatten(members) {
			if c.Op == command.OpBatch {
				t.Fatalf("flatten left a batch among %d members", len(members))
			}
		}
	})
}

func BenchmarkBatchRoundTrip(b *testing.B) {
	members := twoPuts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packed, err := Pack(members)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Unpack(packed); err != nil {
			b.Fatal(err)
		}
	}
}
