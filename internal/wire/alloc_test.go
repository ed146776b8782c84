//go:build !race

package wire

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// The allocation budget of the message path, per envelope: encoding reuses
// the encoder's buffer, decoding allocates an exact-size copy of each
// non-empty key, value and payload and the message struct — except that a
// FastPropose, a FastProposeReply, a Stable and a shard envelope are slots
// of the decoder's chunks, and a Pred or Whitelist is carved from its
// chunk of IDs, which average out below one. A budget marked under is met
// by fewer allocations than it names, measured without rounding down.
// (The race detector changes allocation counts, hence the build tag.)
func TestAllocationBudget(t *testing.T) {
	pred := make([]command.ID, 8)
	for i := range pred {
		pred[i] = command.ID{Node: 2, Seq: uint64(100 + i)}
	}
	cases := []struct {
		name           string
		payload        any
		encode, decode float64
		under          bool
	}{
		{"FastPropose of a 16-byte put", samplePropose(), 0, 2, false}, // key + value
		{"FastProposeReply, empty Pred", &caesar.FastProposeReply{CmdID: command.ID{Node: 1, Seq: 42}}, 0, 0, false},
		{"FastProposeReply, 8-ID Pred", &caesar.FastProposeReply{CmdID: command.ID{Node: 1, Seq: 42}, Pred: pred}, 0, 1, true},
		{"Stable by name", &caesar.Stable{Cmd: command.Command{ID: command.ID{Node: 1, Seq: 42}}}, 0, 0, false},
		{"Stable of a 16-byte put", &caesar.Stable{Cmd: samplePropose().Cmd}, 0, 2, false}, // key + value
		{"Stable of a 16-byte put, 8-ID Pred", &caesar.Stable{Cmd: samplePropose().Cmd, Pred: pred}, 0, 3, true},
		{"Heartbeat", &caesar.Heartbeat{}, 0, 1, false},
		{"FastProposeReply in a shard envelope", &shard.Envelope{Shard: 2, Gen: 1, Payload: &caesar.FastProposeReply{CmdID: command.ID{Node: 1, Seq: 42}}}, 0, 0, false},
		{"FastPropose of a 16-byte put in a shard envelope", &shard.Envelope{Shard: 2, Gen: 1, Payload: samplePropose()}, 0, 2, false},
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
		decode := func() {
			stream.Reset(one)
			if err := dec.Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		if tc.under {
			if got := allocsPer(1000, decode); got >= tc.decode {
				t.Errorf("%s: decode allocates %.3f per envelope, want under %.0f", tc.name, got, tc.decode)
			}
		} else if got := testing.AllocsPerRun(200, decode); got > tc.decode {
			t.Errorf("%s: decode allocates %.1f per envelope, budget %.0f", tc.name, got, tc.decode)
		}
	}
}

// allocsPer is testing.AllocsPerRun without its rounding down to a whole
// allocation: the mean over runs calls of f, after one warm-up call.
func allocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
