package caesar

import (
	"reflect"
	"testing"

	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/quorum"
)

// TestSentMessagesAreNeverReused: the FastPropose, FastProposeReply and
// Stable a replica sends are slots of its chunks, and a transport may hold
// one long after the step that sent it. Over more than two chunks of each
// kind, every message the stub endpoint kept must still read as it did
// when it was sent, and no two sends may share a slot.
func TestSentMessagesAreNeverReused(t *testing.T) {
	const sends = 2*chunk.Size + 1
	// Self is outside the peer list, so every message lands in the stub.
	r, ep := testReplica(5)

	kinds := []struct {
		name string
		send func(i int)
	}{
		{"FastPropose", func(i int) {
			c := &coordinator{cmd: put(5, uint64(i+1), "k"), ballot: uint32(i)}
			var whitelist []command.ID
			if i%2 == 0 {
				whitelist = []command.ID{{Node: 1, Seq: uint64(i)}}
			}
			r.startFastProposal(c, ts(uint64(i+1), 5), whitelist, whitelist != nil)
		}},
		{"FastProposeReply", func(i int) {
			r.reply(3, command.ID{Node: 3, Seq: uint64(i + 1)}, ts(uint64(i+1), 3), []command.ID{{Node: 0, Seq: uint64(i)}}, uint32(i), false, i%3 == 0)
		}},
		{"Stable", func(i int) {
			c := &coordinator{cmd: put(5, uint64(i+1), "k"), ballot: uint32(i), ts: ts(uint64(i+1), 5), phase: phaseStable,
				pred: []command.ID{{Node: 2, Seq: uint64(i)}}, votes: quorum.NewTracker(r.fq)}
			for v := int32(0); v < int32(i%6); v++ {
				c.votes.Add(v)
			}
			r.startStable(c)
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ep.clear()
			type kept struct {
				send int
				msg  any // a pointer, as sent
				want any // what it pointed at right after the send
			}
			var all []kept
			owner := make(map[any]int)
			for i := 0; i < sends; i++ {
				from := len(ep.sent)
				kind.send(i)
				if len(ep.sent) == from {
					t.Fatalf("send %d sent nothing", i)
				}
				for _, s := range ep.sent[from:] {
					if prev, ok := owner[s.payload]; ok && prev != i {
						t.Fatalf("send %d reuses the slot %p of send %d", i, s.payload, prev)
					}
					owner[s.payload] = i
					all = append(all, kept{i, s.payload, reflect.ValueOf(s.payload).Elem().Interface()})
				}
			}
			for _, k := range all {
				if now := reflect.ValueOf(k.msg).Elem().Interface(); !reflect.DeepEqual(now, k.want) {
					t.Fatalf("send %d of %d: message changed after it was sent\nsent %#v\nnow  %#v", k.send, sends, k.want, now)
				}
			}
		})
	}
}
