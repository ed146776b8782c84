//go:build !race

package caesar

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
)

// A decision costs under one allocation whichever replicas voted: a Stable
// by name when all did, a whole one when none did, and both forms when a
// five-node decision is taken by four votes, each a slot of the replica's
// Stable chunk. (The race detector's instrumentation allocates, hence the
// build tag.)
func TestStableByNameAllocatesUnderOneMessage(t *testing.T) {
	// Self is outside the peer list, so nothing loops back and every
	// Stable lands in the stub.
	ep := &stubEP{self: 5, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }), Config{HeartbeatInterval: -1})
	c := &coordinator{cmd: put(5, 1, "k"), phase: phaseStable}
	for _, voters := range []int32{0, 4, 5} {
		c.votes = quorum.NewTracker(r.fq)
		for v := int32(0); v < voters; v++ {
			c.votes.Add(v)
		}
		if n := testing.AllocsPerRun(100, func() { r.startStable(c); ep.clear() }); n >= 1 {
			t.Errorf("%d of 5 voters: startStable allocates %.0f per decision, want under 1", voters, n)
		}
	}
}

// The acceptor's FastProposeReply and the leader's FastPropose are slots of
// the replica's chunks too: neither costs an allocation per message.
func TestProposeAndReplyAllocateUnderOneMessage(t *testing.T) {
	ep := &stubEP{self: 5, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }), Config{HeartbeatInterval: -1})
	c := &coordinator{cmd: put(5, 1, "k")}
	if n := testing.AllocsPerRun(100, func() { r.startFastProposal(c, ts(3, 5), nil, false); ep.clear() }); n >= 1 {
		t.Errorf("startFastProposal allocates %.0f per proposal, want under 1", n)
	}
	pred := []command.ID{{Node: 0, Seq: 1}}
	if n := testing.AllocsPerRun(100, func() { r.reply(0, c.cmd.ID, ts(3, 5), pred, 0, false, false); ep.clear() }); n >= 1 {
		t.Errorf("reply allocates %.0f per FastProposeReply, want under 1", n)
	}
}

// A submitted command's record and coordinator are slots of the history's
// and the replica's chunks, and its FastPropose one of the replica's: the
// leader's whole onSubmit costs under one allocation per command.
func TestSubmitAllocatesUnderOneCommand(t *testing.T) {
	r, ep := testReplica(5)
	cmd := command.Put("k", nil)
	if n := testing.AllocsPerRun(1000, func() { r.onSubmit(cmd, nil); ep.clear() }); n >= 1 {
		t.Errorf("onSubmit allocates %.2f per command, want under 1", n)
	}
}
