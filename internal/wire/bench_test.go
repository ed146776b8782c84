package wire

import (
	"bytes"
	"io"
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// benchMessages is the traffic of one uncontended command as its leader's
// links see it: a proposal, its reply, the decision, the GC batches.
func benchMessages() []benchMessage {
	propose := samplePropose()
	id := propose.Cmd.ID
	return []benchMessage{
		{"FastPropose", propose},
		{"FastProposeReply", &caesar.FastProposeReply{CmdID: id, Time: propose.Time}},
		{"Stable", &caesar.Stable{Cmd: propose.Cmd, Time: propose.Time, Pred: []command.ID{{Node: 2, Seq: 41}}}},
		{"StableAckBatch", &caesar.StableAckBatch{IDs: []command.ID{id, {Node: 1, Seq: 43}, {Node: 1, Seq: 44}}}},
		{"ShardedPropose", &shard.Envelope{Shard: 3, Gen: 1, Payload: propose}},
		{"Heartbeat", &caesar.Heartbeat{}},
	}
}

type benchMessage struct {
	name string
	msg  any
}

func BenchmarkEncode(b *testing.B) {
	for _, m := range benchMessages() {
		env := &Envelope{From: 1, Payload: m.msg}
		b.Run(m.name, func(b *testing.B) {
			enc := NewEncoder(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, m := range benchMessages() {
		one := frame(b, &Envelope{From: 1, Payload: m.msg})
		b.Run(m.name, func(b *testing.B) {
			stream := bytes.NewReader(nil)
			dec := NewDecoder(stream)
			var env Envelope
			b.SetBytes(int64(len(one)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stream.Reset(one)
				if err := dec.Decode(&env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
