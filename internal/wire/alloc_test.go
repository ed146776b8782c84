//go:build !race

package wire

import (
	"bytes"
	"io"
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// The allocation budget of the message path, per envelope: encoding reuses
// the encoder's buffer, decoding allocates an exact-size copy of each
// non-empty key, value, payload and id list and the message struct —
// except that a FastPropose, a FastProposeReply, a Stable and a shard
// envelope are slots of the decoder's chunks, which average out below one.
// (The race detector changes allocation counts, hence the build tag.)
func TestAllocationBudget(t *testing.T) {
	cases := []struct {
		name           string
		payload        any
		encode, decode float64
	}{
		{"FastPropose of a 16-byte put", samplePropose(), 0, 2}, // key + value
		{"FastProposeReply, empty Pred", &caesar.FastProposeReply{CmdID: command.ID{Node: 1, Seq: 42}}, 0, 0},
		{"Stable by name", &caesar.Stable{Cmd: command.Command{ID: command.ID{Node: 1, Seq: 42}}}, 0, 0},
		{"Stable of a 16-byte put", &caesar.Stable{Cmd: samplePropose().Cmd}, 0, 2}, // key + value
		{"Heartbeat", &caesar.Heartbeat{}, 0, 1},
		{"FastProposeReply in a shard envelope", &shard.Envelope{Shard: 2, Gen: 1, Payload: &caesar.FastProposeReply{CmdID: command.ID{Node: 1, Seq: 42}}}, 0, 0},
		{"FastPropose of a 16-byte put in a shard envelope", &shard.Envelope{Shard: 2, Gen: 1, Payload: samplePropose()}, 0, 2},
	}
	for _, tc := range cases {
		env := &Envelope{From: 1, Payload: tc.payload}
		enc := NewEncoder(io.Discard)
		if got := testing.AllocsPerRun(200, func() {
			if err := enc.Encode(env); err != nil {
				t.Fatal(err)
			}
		}); got > tc.encode {
			t.Errorf("%s: encode allocates %.1f per envelope, budget %.0f", tc.name, got, tc.encode)
		}

		one := frame(t, env)
		stream := bytes.NewReader(nil)
		dec := NewDecoder(stream)
		var out Envelope
		if got := testing.AllocsPerRun(200, func() {
			stream.Reset(one)
			if err := dec.Decode(&out); err != nil {
				t.Fatal(err)
			}
		}); got > tc.decode {
			t.Errorf("%s: decode allocates %.1f per envelope, budget %.0f", tc.name, got, tc.decode)
		}
	}
}
