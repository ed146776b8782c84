package m2paxos

import (
	"testing"
	"testing/quick"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

func TestBallotPackUnpack(t *testing.T) {
	f := func(round uint16, node uint8) bool {
		r := uint32(round)
		n := timestamp.NodeID(node % 64)
		b := makeBallot(r, n)
		return b.round() == r && b.node() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ballots order primarily by round, and ballots from different
// nodes at the same round never compare equal.
func TestBallotOrdering(t *testing.T) {
	f := func(r1, r2 uint16, n1, n2 uint8) bool {
		b1 := makeBallot(uint32(r1), timestamp.NodeID(n1%32))
		b2 := makeBallot(uint32(r2), timestamp.NodeID(n2%32))
		if r1 < r2 && b1 >= b2 {
			return false
		}
		if r1 == r2 && n1%32 != n2%32 && b1 == b2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// captureEP records outbound messages for white-box acceptor tests.
type captureEP struct {
	self timestamp.NodeID
	n    int
	sent []any
}

var _ transport.Endpoint = (*captureEP)(nil)

func (e *captureEP) Self() timestamp.NodeID { return e.self }
func (e *captureEP) Peers() []timestamp.NodeID {
	peers := make([]timestamp.NodeID, e.n)
	for i := range peers {
		peers[i] = timestamp.NodeID(i)
	}
	return peers
}
func (e *captureEP) Send(_ timestamp.NodeID, payload any) { e.sent = append(e.sent, payload) }
func (e *captureEP) Broadcast(payload any) {
	for i := 0; i < e.n; i++ {
		e.sent = append(e.sent, payload)
	}
}
func (e *captureEP) SetHandler(transport.Handler) {}
func (e *captureEP) Close() error                 { return nil }

func (e *captureEP) last() any {
	if len(e.sent) == 0 {
		return nil
	}
	return e.sent[len(e.sent)-1]
}

func testPut(node int32, seq uint64, key string) command.Command {
	cmd := command.Put(key, nil)
	cmd.ID = command.ID{Node: timestamp.NodeID(node), Seq: seq}
	return cmd
}

func acceptorReplica() (*Replica, *captureEP) {
	ep := &captureEP{self: 1, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }), Config{})
	return r, ep
}

func TestRoundOneOnlyGrantsVirginKeys(t *testing.T) {
	r, ep := acceptorReplica()
	// First claimant at round 1 wins the virgin key.
	r.onAccept(0, &Accept{Key: "k", Ballot: makeBallot(1, 0), Inst: 0, Cmd: testPut(0, 1, "k")})
	if _, ok := ep.last().(*AcceptOK); !ok {
		t.Fatalf("first claim got %T", ep.last())
	}
	if got := r.key("k").promised; got != makeBallot(1, 0) {
		t.Fatalf("promise = %v", got)
	}
	// A second round-1 claimant is refused even with a numerically
	// higher ballot — round-1 accepts skip the prepare phase and are
	// only safe on unpromised keys.
	r.onAccept(3, &Accept{Key: "k", Ballot: makeBallot(1, 3), Inst: 0, Cmd: testPut(3, 1, "k")})
	if _, ok := ep.last().(*AcceptNACK); !ok {
		t.Fatalf("competing round-1 claim got %T", ep.last())
	}
	// The original owner keeps getting grants at its ballot.
	r.onAccept(0, &Accept{Key: "k", Ballot: makeBallot(1, 0), Inst: 1, Cmd: testPut(0, 2, "k")})
	if _, ok := ep.last().(*AcceptOK); !ok {
		t.Fatalf("owner's subsequent accept got %T", ep.last())
	}
	// Higher rounds follow classic Paxos: ballot ≥ promise grants.
	r.onAccept(3, &Accept{Key: "k", Ballot: makeBallot(2, 3), Inst: 2, Cmd: testPut(3, 2, "k")})
	if _, ok := ep.last().(*AcceptOK); !ok {
		t.Fatalf("round-2 accept got %T", ep.last())
	}
	if got := r.key("k").promised; got != makeBallot(2, 3) {
		t.Fatal("round-2 accept did not raise the promise")
	}
}

func TestCommittedValueForcesAdoption(t *testing.T) {
	r, ep := acceptorReplica()
	original := testPut(0, 1, "k")
	r.onCommit(&Commit{Key: "k", Ballot: makeBallot(1, 0), Inst: 5, Cmd: original})
	// A later claim for the same instance with a different command must
	// be told about the decided value.
	r.onAccept(3, &Accept{Key: "k", Ballot: makeBallot(2, 3), Inst: 5, Cmd: testPut(3, 1, "k")})
	reply, ok := ep.last().(*AcceptOK)
	if !ok {
		t.Fatalf("claim got %T", ep.last())
	}
	if !reply.PrevValid || reply.PrevCmd.ID != original.ID {
		t.Fatalf("adoption info missing: %+v", reply)
	}
}

func TestPrepareReturnsSuffixAndRefusesStale(t *testing.T) {
	r, ep := acceptorReplica()
	r.onAccept(0, &Accept{Key: "k", Ballot: makeBallot(1, 0), Inst: 0, Cmd: testPut(0, 1, "k")})
	r.onAccept(0, &Accept{Key: "k", Ballot: makeBallot(1, 0), Inst: 1, Cmd: testPut(0, 2, "k")})
	r.onPrepareKey(2, &PrepareKey{Key: "k", Ballot: makeBallot(2, 2)})
	okMsg, ok := ep.last().(*PrepareKeyOK)
	if !ok {
		t.Fatalf("prepare got %T", ep.last())
	}
	if len(okMsg.Suffix) != 2 {
		t.Fatalf("suffix has %d entries, want 2", len(okMsg.Suffix))
	}
	// A stale (lower-ballot) prepare is refused.
	r.onPrepareKey(3, &PrepareKey{Key: "k", Ballot: makeBallot(2, 1)})
	if _, ok := ep.last().(*PrepareKeyNACK); !ok {
		t.Fatalf("stale prepare got %T", ep.last())
	}
}

// preparing returns replica 3 of five in the middle of a round-2 prepare
// for key k, with nothing sent yet.
func preparing() (*Replica, *captureEP, *keyState) {
	ep := &captureEP{self: 3, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }), Config{})
	ks := r.key("k")
	ks.promised = makeBallot(1, 3)
	r.startPrepare("k", ks)
	ep.sent = nil
	return r, ep, ks
}

// accepts returns the Accepts sent, by instance.
func accepts(ep *captureEP) map[uint64]command.ID {
	out := make(map[uint64]command.ID)
	for _, m := range ep.sent {
		if a, ok := m.(*Accept); ok {
			out[a.Inst] = a.Cmd.ID
		}
	}
	return out
}

// TestPrepareAdoptsTheChosenRoundOneClaim: nodes 2 and 3 claimed the
// virgin key at round 1 together, each granting itself first. Node 2's
// claim won ({1, 2, 4}); node 3's got {0, 3} and lost. Node 3's prepare
// quorum {0, 1, 3} reports both values — node 3's under the numerically
// higher round-1 ballot — and cannot tell which was chosen: it must wait
// for every promise and adopt the value a majority accepted.
func TestPrepareAdoptsTheChosenRoundOneClaim(t *testing.T) {
	r, ep, ks := preparing()
	won, lost := testPut(2, 2, "k"), testPut(3, 1, "k")
	report := func(from timestamp.NodeID, claimant timestamp.NodeID, cmd command.Command) {
		r.onPrepareKeyOK(from, &PrepareKeyOK{Key: "k", Ballot: ks.ballot,
			Suffix: []SuffixEntry{{Inst: 0, Ballot: makeBallot(1, claimant), Cmd: cmd}}})
	}
	report(3, 3, lost)
	report(0, 3, lost)
	report(1, 2, won)
	if got := accepts(ep); len(got) != 0 {
		t.Fatalf("re-proposed %v on a quorum holding two round-1 claims", got)
	}
	report(2, 2, won)
	report(4, 2, won)
	if got := accepts(ep); got[0] != won.ID || len(got) != 1 {
		t.Fatalf("re-proposed %v, want instance 0 = %v (the claim a majority accepted)", got, won.ID)
	}
}

// TestPrepareLeavesExecutedInstancesAlone: a replier that executed
// instances 0 and 1 does not report them, and the preparer never saw
// their Commits yet. Re-proposing them — as no-ops, or as what a replier
// that accepted but did not execute them reports — could contradict the
// decision; the Commits are on their way.
func TestPrepareLeavesExecutedInstancesAlone(t *testing.T) {
	r, ep, ks := preparing()
	stale := []SuffixEntry{{Inst: 1, Ballot: makeBallot(1, 3), Cmd: testPut(3, 1, "k")},
		{Inst: 2, Ballot: makeBallot(1, 2), Cmd: testPut(2, 3, "k")}}
	r.onPrepareKeyOK(3, &PrepareKeyOK{Key: "k", Ballot: ks.ballot, Suffix: stale})
	r.onPrepareKeyOK(0, &PrepareKeyOK{Key: "k", Ballot: ks.ballot, Suffix: stale})
	r.onPrepareKeyOK(2, &PrepareKeyOK{Key: "k", Ballot: ks.ballot, ExecNext: 2,
		Suffix: []SuffixEntry{{Inst: 2, Ballot: makeBallot(1, 2), Cmd: testPut(2, 3, "k")}}})
	if got := accepts(ep); len(got) != 1 || got[2] != testPut(2, 3, "k").ID {
		t.Fatalf("re-proposed %v, want instance 2 alone", got)
	}
	if ks.nextInst != 3 {
		t.Fatalf("next instance %d, want 3", ks.nextInst)
	}
}
