package caesar

// White-box tests driving the acceptor and proposer handlers directly
// (without the event loop), checking the protocol steps of Figs 3–5 at the
// pseudocode level: predecessor computation, the wait condition, NACK
// rules, loop-breaking delivery, ballots and recovery case analysis.

import (
	"slices"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// sentMsg is one captured outbound message.
type sentMsg struct {
	to      timestamp.NodeID
	payload any
}

// stubEP captures sends instead of delivering them.
type stubEP struct {
	self timestamp.NodeID
	n    int
	sent []sentMsg
}

var _ transport.Endpoint = (*stubEP)(nil)

func (s *stubEP) Self() timestamp.NodeID { return s.self }
func (s *stubEP) Peers() []timestamp.NodeID {
	peers := make([]timestamp.NodeID, s.n)
	for i := range peers {
		peers[i] = timestamp.NodeID(i)
	}
	return peers
}
func (s *stubEP) Send(to timestamp.NodeID, payload any) {
	s.sent = append(s.sent, sentMsg{to: to, payload: payload})
}
func (s *stubEP) Broadcast(payload any) {
	for i := 0; i < s.n; i++ {
		s.sent = append(s.sent, sentMsg{to: timestamp.NodeID(i), payload: payload})
	}
}
func (s *stubEP) SetHandler(transport.Handler) {}
func (s *stubEP) Close() error                 { return nil }

// lastTo returns the most recent message sent to a node, or nil.
func (s *stubEP) lastTo(to timestamp.NodeID) any {
	for i := len(s.sent) - 1; i >= 0; i-- {
		if s.sent[i].to == to {
			return s.sent[i].payload
		}
	}
	return nil
}

func (s *stubEP) clear() { s.sent = s.sent[:0] }

// testReplica builds an unstarted replica whose handlers can be invoked
// synchronously.
func testReplica(self timestamp.NodeID) (*Replica, *stubEP) {
	ep := &stubEP{self: self, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }), Config{HeartbeatInterval: -1})
	return r, ep
}

func put(node int32, seq uint64, key string) command.Command {
	cmd := command.Put(key, nil)
	cmd.ID = command.ID{Node: timestamp.NodeID(node), Seq: seq}
	return cmd
}

func ts(seq uint64, node int32) timestamp.Timestamp {
	return timestamp.Timestamp{Seq: seq, Node: timestamp.NodeID(node)}
}

func TestFastProposeOKWithPredecessors(t *testing.T) {
	r, ep := testReplica(2)
	// A stable earlier command on the same key.
	older := put(0, 1, "k")
	r.onStable(0, &Stable{Cmd: older, Time: ts(1, 0)})
	ep.clear()

	// A later proposal must list it as predecessor and be confirmed.
	newer := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: newer, Time: ts(5, 1)})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no FastProposeReply, sent=%v", ep.sent)
	}
	if reply.NACK {
		t.Fatal("unexpected NACK")
	}
	if reply.Time != ts(5, 1) {
		t.Fatalf("echoed time %v", reply.Time)
	}
	if len(reply.Pred) != 1 || reply.Pred[0] != older.ID {
		t.Fatalf("pred = %v, want [%v]", reply.Pred, older.ID)
	}
}

func TestFastProposeNACKOnStableHigherTimestamp(t *testing.T) {
	r, ep := testReplica(2)
	// A conflicting command is stable at timestamp 10 WITHOUT the new
	// command in its predecessor set: timestamp 5 must be rejected
	// (Fig 3, WAIT returning NACK).
	cbar := put(0, 1, "k")
	r.onStable(0, &Stable{Cmd: cbar, Time: ts(10, 0)})
	ep.clear()

	c := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: c, Time: ts(5, 1)})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply, sent=%v", ep.sent)
	}
	if !reply.NACK {
		t.Fatal("want NACK")
	}
	if !ts(10, 0).Less(reply.Time) {
		t.Fatalf("suggestion %v not above the conflicting stable %v", reply.Time, ts(10, 0))
	}
	if !command.ContainsID(reply.Pred, cbar.ID) {
		t.Fatalf("NACK preds %v must include the conflicting command", reply.Pred)
	}
	if rec := r.hist.get(c.ID); rec.status != StatusRejected {
		t.Fatalf("record status %v, want rejected", rec.status)
	}
}

func TestFastProposeWaitsOnPendingHigherTimestamp(t *testing.T) {
	r, ep := testReplica(2)
	// A conflicting fast-pending command at timestamp 10 (not yet
	// accepted/stable) blocks a timestamp-5 proposal: no reply yet
	// (Fig 2a).
	cbar := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: cbar, Time: ts(10, 0)})
	ep.clear()

	c := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: c, Time: ts(5, 1)})
	if got := ep.lastTo(1); got != nil {
		t.Fatalf("reply sent while blocked: %v", got)
	}
	if len(r.waiters) != 1 {
		t.Fatalf("waiters = %d", len(r.waiters))
	}

	// The blocker goes stable WITH c in its predecessor set → c is
	// released with an OK (the fast-decision-preserving outcome).
	r.onStable(0, &Stable{Cmd: cbar, Time: ts(10, 0), Pred: []command.ID{c.ID}})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply after unblock, sent=%v", ep.sent)
	}
	if reply.NACK {
		t.Fatal("want OK after blocker included us")
	}
	if reply.Time != ts(5, 1) {
		t.Fatalf("time %v", reply.Time)
	}
}

func TestWaitResolvesToNACKWhenExcluded(t *testing.T) {
	r, ep := testReplica(2)
	cbar := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: cbar, Time: ts(10, 0)})
	ep.clear()

	c := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: c, Time: ts(5, 1)})
	if len(r.waiters) != 1 {
		t.Fatalf("waiters = %d", len(r.waiters))
	}
	// The blocker goes stable WITHOUT c → NACK (Fig 2b).
	r.onStable(0, &Stable{Cmd: cbar, Time: ts(10, 0)})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply after unblock, sent=%v", ep.sent)
	}
	if !reply.NACK {
		t.Fatal("want NACK when excluded from the blocker's preds")
	}
}

func TestLowerTimestampNeverBlocks(t *testing.T) {
	r, ep := testReplica(2)
	// A pending conflicting command with a LOWER timestamp must not
	// block (only higher timestamps wait, which is the deadlock-freedom
	// argument of §IV-A).
	cbar := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: cbar, Time: ts(2, 0)})
	ep.clear()

	c := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: c, Time: ts(5, 1)})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no immediate reply, sent=%v", ep.sent)
	}
	if reply.NACK {
		t.Fatal("unexpected NACK")
	}
	if !command.ContainsID(reply.Pred, cbar.ID) {
		t.Fatalf("pred %v must include the lower-timestamped command", reply.Pred)
	}
}

func TestRetryNeverRejectedAndExtendsPreds(t *testing.T) {
	r, ep := testReplica(2)
	// Even with a conflicting stable command at a higher timestamp, a
	// Retry is accepted (§V-C: "a reply from an acceptor in this phase
	// cannot reject the broadcast timestamp").
	other := put(2, 7, "k")
	r.onFastPropose(2, &FastPropose{Cmd: other, Time: ts(3, 2)})
	cbar := put(0, 1, "k")
	r.onStable(0, &Stable{Cmd: cbar, Time: ts(50, 0), Pred: []command.ID{other.ID}})
	ep.clear()

	c := put(1, 1, "k")
	r.onRetry(1, &Retry{Cmd: c, Time: ts(20, 1), Pred: []command.ID{cbar.ID}})
	reply, ok := ep.lastTo(1).(*RetryReply)
	if !ok {
		t.Fatalf("no RetryReply, sent=%v", ep.sent)
	}
	if reply.Time != ts(20, 1) {
		t.Fatalf("retry time %v", reply.Time)
	}
	// The reply unions the leader's set with locally known lower
	// conflicting commands (Fig 4, R7).
	if !command.ContainsID(reply.Pred, cbar.ID) || !command.ContainsID(reply.Pred, other.ID) {
		t.Fatalf("retry preds %v must include both %v and %v", reply.Pred, cbar.ID, other.ID)
	}
	if rec := r.hist.get(c.ID); rec.status != StatusAccepted {
		t.Fatalf("status %v, want accepted", rec.status)
	}
}

func TestAcceptedUnblocksWaiters(t *testing.T) {
	r, ep := testReplica(2)
	cbar := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: cbar, Time: ts(10, 0)})
	c := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: c, Time: ts(5, 1)})
	ep.clear()
	// Retry for the blocker at an even higher timestamp that includes c:
	// accepted status resolves the wait with OK.
	r.onRetry(0, &Retry{Cmd: cbar, Time: ts(12, 0), Pred: []command.ID{c.ID}})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply, sent=%v", ep.sent)
	}
	if reply.NACK {
		t.Fatal("want OK: accepted blocker lists us as predecessor")
	}
}

func TestBallotFiltering(t *testing.T) {
	r, ep := testReplica(2)
	c := put(0, 1, "k")
	// Ballot 2 first (e.g. from a recoverer).
	r.onFastPropose(3, &FastPropose{Ballot: 2, Cmd: c, Time: ts(5, 3)})
	ep.clear()
	// A stale ballot-1 message must be ignored entirely.
	r.onFastPropose(0, &FastPropose{Ballot: 1, Cmd: c, Time: ts(3, 0)})
	if got := ep.lastTo(0); got != nil {
		t.Fatalf("stale ballot got reply %v", got)
	}
	if rec := r.hist.get(c.ID); rec.ts != ts(5, 3) {
		t.Fatalf("stale ballot overwrote timestamp: %v", rec.ts)
	}
}

func TestStableEchoForDecidedCommand(t *testing.T) {
	r, ep := testReplica(2)
	c := put(0, 1, "k")
	r.onStable(0, &Stable{Cmd: c, Time: ts(5, 0)})
	ep.clear()
	// A re-proposal (same ballot) of a decided command is answered with
	// the decision itself.
	r.onFastPropose(3, &FastPropose{Cmd: c, Time: ts(9, 3)})
	if _, ok := ep.lastTo(3).(*Stable); !ok {
		t.Fatalf("want Stable echo, got %v", ep.lastTo(3))
	}
}

func TestBreakLoopDeliversInTimestampOrder(t *testing.T) {
	r, _ := testReplica(2)
	applied := []command.ID{}
	setApplier(r, protocol.ApplierFunc(func(cmd command.Command) []byte {
		applied = append(applied, cmd.ID)
		return nil
	}))
	a, b := put(0, 1, "k"), put(1, 1, "k")
	// Mutual predecessors (a loop, possible because pred inclusion does
	// not imply timestamp order): must deliver by timestamp: a (ts 3)
	// before b (ts 7).
	r.onStable(1, &Stable{Cmd: b, Time: ts(7, 1), Pred: []command.ID{a.ID}})
	if len(applied) != 0 {
		t.Fatal("b delivered before its predecessor")
	}
	r.onStable(0, &Stable{Cmd: a, Time: ts(3, 0), Pred: []command.ID{b.ID}})
	if len(applied) != 2 || applied[0] != a.ID || applied[1] != b.ID {
		t.Fatalf("delivery order %v, want [a b]", applied)
	}
}

func TestComputePredecessorsWhitelist(t *testing.T) {
	r, _ := testReplica(2)
	// Three conflicting commands below ts 10: one fast-pending, one
	// accepted, one stable.
	pending := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: pending, Time: ts(2, 0)})
	accepted := put(3, 1, "k")
	r.onRetry(3, &Retry{Cmd: accepted, Time: ts(4, 3)})
	stable := put(4, 1, "k")
	r.onStable(4, &Stable{Cmd: stable, Time: ts(6, 4)})

	target := command.Put("k", nil)
	target.ID = command.ID{Node: 1, Seq: 1}

	// Without a whitelist: every conflicting lower-timestamped command.
	pred := r.hist.computePredecessors(target, ts(10, 1), nil, false)
	if len(pred) != 3 || !command.IsSortedIDs(pred) {
		t.Fatalf("plain preds = %v", pred)
	}
	// With an empty whitelist: only non-fast-pending entries qualify
	// (Fig 3, lines 1–3).
	pred = r.hist.computePredecessors(target, ts(10, 1), nil, true)
	if !slices.Equal(pred, []command.ID{accepted.ID, stable.ID}) {
		t.Fatalf("whitelist preds = %v", pred)
	}
	// Whitelisted fast-pending entries are forced in.
	whitelist := []command.ID{pending.ID}
	pred = r.hist.computePredecessors(target, ts(10, 1), whitelist, true)
	if !slices.Equal(pred, []command.ID{pending.ID, accepted.ID, stable.ID}) {
		t.Fatalf("forced pred missing: %v", pred)
	}
	if !slices.Equal(whitelist, []command.ID{pending.ID}) {
		t.Fatalf("the message's whitelist was written into: %v", whitelist)
	}
}

func TestPurgeFenceRejectsBelowPurgedTimestamp(t *testing.T) {
	r, ep := testReplica(2)
	c := put(0, 1, "k")
	r.onStable(0, &Stable{Cmd: c, Time: ts(10, 0)})
	// Simulate full delivery + purge.
	r.onPurgeBatch(0, &PurgeBatch{IDs: []command.ID{c.ID}})
	if r.hist.get(c.ID) != nil {
		t.Fatal("record survived purge")
	}
	ep.clear()
	// A proposal below the purged timestamp must be rejected even though
	// no record remains.
	late := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: late, Time: ts(5, 1)})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply, sent=%v", ep.sent)
	}
	if !reply.NACK {
		t.Fatal("purge fence must force a NACK")
	}
}

// gcTick steps the replica through its next GC tick, which moves the purge
// fence's floor to the horizon.
func gcTick(r *Replica) {
	r.Step(r.now.Add(r.cfg.GCInterval), protocol.Event{Payload: protocol.Tick{}})
}

// stableAndPurged delivers cmd at timestamp at and purges it, as a fully
// acknowledged command is.
func stableAndPurged(r *Replica, cmd command.Command, at timestamp.Timestamp) {
	r.onStable(cmd.ID.Node, &Stable{Cmd: cmd, Time: at})
	r.onPurgeBatch(cmd.ID.Node, &PurgeBatch{IDs: []command.ID{cmd.ID}})
}

// peersReport delivers the heartbeats of a cluster whose other replicas
// hold nothing at or below at: each reports at as its Low and its Seen.
func peersReport(r *Replica, at timestamp.Timestamp, peers ...timestamp.NodeID) {
	for _, p := range peers {
		r.onHeartbeat(p, &Heartbeat{Low: at, Seen: at})
	}
}

// A proposal parked by the wait condition is a command this replica knows:
// while a higher-stamped command on another key is purged, every other
// replica reports past it and two GC ticks pass, the floor must stay at or
// below it, so that when its blocker turns stable listing it, it is
// answered OK and not NACKed.
func TestPurgeFenceKeepsParkedWaiterAboveFloor(t *testing.T) {
	r, ep := testReplica(2)
	peersReport(r, ts(100, 0), 0, 1, 3, 4)
	cbar := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: cbar, Time: ts(10, 0)})
	c := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: c, Time: ts(5, 1)})
	if len(r.waiters) != 1 {
		t.Fatalf("waiters = %d, want c parked behind the pending blocker", len(r.waiters))
	}
	stableAndPurged(r, put(3, 1, "x"), ts(20, 3))
	gcTick(r)
	gcTick(r)
	if r.hist.floor != ts(5, 1) {
		t.Fatalf("the floor is %v, want it held at the parked proposal's %v", r.hist.floor, ts(5, 1))
	}
	if len(r.waiters) != 1 {
		t.Fatalf("waiters = %d after two GC ticks, want c still parked", len(r.waiters))
	}

	ep.clear()
	r.onStable(0, &Stable{Cmd: cbar, Time: ts(10, 0), Pred: []command.ID{c.ID}})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply after the blocker turned stable, sent=%v", ep.sent)
	}
	if reply.NACK || reply.Time != ts(5, 1) {
		t.Fatalf("reply NACK=%v at %v, want OK at %v", reply.NACK, reply.Time, ts(5, 1))
	}
}

// The floor rises only once every replica has reported past it: a purged
// entry waits while one replica is not heard from. Then a proposal below
// the floor for a command this replica never indexed is NACKed even on a
// key no purge touched; the suggestion is above the floor, and the command
// finishes through the retry, which never consults the fence. The gauge
// drops to zero on the tick whose floor covers the purge.
func TestPurgeFenceNacksBelowClusterHorizon(t *testing.T) {
	r, ep := testReplica(2)
	var applied []command.ID
	setApplier(r, protocol.ApplierFunc(func(cmd command.Command) []byte {
		applied = append(applied, cmd.ID)
		return nil
	}))
	stableAndPurged(r, put(0, 1, "a"), ts(10, 0))
	peersReport(r, ts(30, 0), 0, 1, 3)
	gcTick(r)
	gcTick(r)
	if !r.hist.floor.IsZero() {
		t.Fatalf("floor = %v with replica 4 never heard from, want zero", r.hist.floor)
	}
	if n := r.met.PurgeFenceKeys.Load(); n != 1 {
		t.Fatalf("caesar_purge_fence_keys = %d while the floor waits, want 1", n)
	}
	peersReport(r, ts(30, 0), 4)
	gcTick(r)
	if !ts(10, 0).Less(r.hist.floor) || !r.hist.floor.Less(ts(30, 0)) {
		t.Fatalf("floor = %v once every replica reported %v, want this replica's own clock, above the purge at %v",
			r.hist.floor, ts(30, 0), ts(10, 0))
	}
	if n := r.met.PurgeFenceKeys.Load(); n != 0 {
		t.Fatalf("caesar_purge_fence_keys = %d after a tick whose floor covers everything purged, want 0", n)
	}

	ep.clear()
	late := put(1, 1, "b")
	r.onFastPropose(1, &FastPropose{Cmd: late, Time: ts(5, 1)})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply, sent=%v", ep.sent)
	}
	if !reply.NACK || reply.Time.Less(r.hist.floor) {
		t.Fatalf("reply NACK=%v at %v, want a NACK suggesting at or above the floor %v", reply.NACK, reply.Time, r.hist.floor)
	}

	r.onRetry(1, &Retry{Cmd: late, Time: reply.Time, Pred: reply.Pred})
	retried, ok := ep.lastTo(1).(*RetryReply)
	if !ok || retried.Time != reply.Time {
		t.Fatalf("retry at %v answered %+v, want a RetryReply at the suggestion", reply.Time, ep.lastTo(1))
	}
	r.onStable(1, &Stable{Cmd: late, Time: retried.Time, Pred: retried.Pred})
	if !slices.Equal(applied, []command.ID{{Node: 0, Seq: 1}, late.ID}) {
		t.Fatalf("applied %v, want the purged command and then the retried one", applied)
	}
}

// An open record holds the floor at its timestamp for as long as it is
// indexed: delivered is not enough. While it does, the entry of a key
// purged above it stays and the gauge counts it, and a proposal on that key
// between the floor and the fence is NACKed. One GC tick after the record's
// purge the floor covers the fence, the entry is gone, and the floor NACKs
// the proposal instead.
func TestPurgeFenceHeldByOpenRecordUntilPurged(t *testing.T) {
	r, _ := testReplica(2)
	peersReport(r, ts(100, 0), 0, 1, 3, 4)
	open := put(1, 1, "b")
	r.onFastPropose(1, &FastPropose{Cmd: open, Time: ts(7, 1)})
	stableAndPurged(r, put(0, 1, "a"), ts(10, 0))
	between := func(when string) {
		t.Helper()
		if !r.evalBlocking(put(3, 1, "a"), ts(8, 3)).nack {
			t.Fatalf("%s: a proposal on the purged key at %v, between the floor and the fence, is not NACKed", when, ts(8, 3))
		}
	}
	held := func(when string) {
		t.Helper()
		gcTick(r)
		if r.hist.floor != ts(7, 1) {
			t.Fatalf("%s: the floor is %v, want it held at the open record's %v", when, r.hist.floor, ts(7, 1))
		}
		if n := r.met.PurgeFenceKeys.Load(); n != 1 || r.hist.byKey["a"] == nil {
			t.Fatalf("%s: caesar_purge_fence_keys = %d, entry %v: want the purged key's entry held", when, n, r.hist.byKey["a"])
		}
		between(when)
	}
	held("while the record is pending")
	held("one tick later")
	r.onStable(1, &Stable{Cmd: open, Time: ts(7, 1)})
	held("once the record was delivered")

	r.onPurgeBatch(1, &PurgeBatch{IDs: []command.ID{open.ID}})
	between("once the record was purged")
	gcTick(r)
	if !ts(10, 0).Less(r.hist.floor) {
		t.Fatalf("the floor is %v one tick after the purge, want it past the fence at %v", r.hist.floor, ts(10, 0))
	}
	if n := r.met.PurgeFenceKeys.Load(); n != 0 || len(r.hist.byKey) != 0 {
		t.Fatalf("caesar_purge_fence_keys = %d with %d entries one tick after the purge, want none", n, len(r.hist.byKey))
	}
	between("one tick after the purge")
}

// The two tests below put a command O where only a cluster-wide horizon
// keeps the floor off it: decided fast without replica X, known only to
// the replicas that OK'd it. X's floor must not pass O's timestamp while O
// is undelivered at X: recovery reads a rejected tuple as proof that the
// command was not decided there (Fig 5, case iii).
const fastLeader, fastX = 4, 1

// fastCase is the script's state: the network, the ring every replica
// traces into, O's FastPropose to X held back, and O's ID and timestamp.
type fastCase struct {
	net  *simNet
	ring *trace.Ring
	held simMsg
	o    command.ID
	at   timestamp.Timestamp
}

// fastDecisionWithoutX runs five replicas two GC ticks, with every clock
// but the leader's at 1000, so that O's timestamp is below everything the
// others have seen. The leader then decides O fast with the OKs of nodes
// 0, 2 and 3: O's FastPropose to X is held back, and the leader's Stables
// never leave (net.drop keeps dropping them).
func fastDecisionWithoutX(t *testing.T) *fastCase {
	t.Helper()
	f := &fastCase{ring: trace.NewRing(1 << 14), o: command.ID{Node: fastLeader, Seq: 1}, at: ts(1, fastLeader)}
	f.net = newSimNet(t, 5, func(int) Config { return Config{Trace: f.ring} })
	net := f.net
	for _, rep := range net.reps[:fastLeader] {
		rep.clock.Observe(ts(1000, 0))
	}
	net.tick(100 * time.Millisecond)
	net.tick(100 * time.Millisecond)
	var holding []simMsg
	net.drop = func(m simMsg) bool {
		switch p := m.payload.(type) {
		case *FastPropose:
			if m.from == fastLeader && m.to == fastX {
				holding = append(holding, m)
				return true
			}
		case *Stable:
			return m.from == fastLeader && p.Cmd.ID.Node == fastLeader
		}
		return false
	}
	net.submit(fastLeader, command.Put("o", nil), nil)
	net.pump()
	if rec := net.reps[fastLeader].hist.get(f.o); rec == nil || rec.ts != f.at || len(holding) != 1 ||
		!slices.Equal(net.applied[fastLeader], []command.ID{f.o}) {
		t.Fatalf("script broken: want O applied at %v by its leader alone and its FastPropose to X held, have %v and %d held",
			f.at, net.applied[fastLeader], len(holding))
	}
	f.held = holding[0]
	return f
}

// lateProposeToX delivers the held FastPropose and checks that X answered
// it OK: its record of O is fast-pending at O's timestamp, not rejected.
func (f *fastCase) lateProposeToX(t *testing.T) {
	t.Helper()
	f.net.drop = nil
	f.net.send(f.held.from, f.held.to, f.held.payload)
	f.net.pump()
	if rec := f.net.reps[fastX].hist.get(f.o); rec == nil || rec.status != StatusFastPending || rec.ts != f.at {
		t.Fatalf("X answered O's late FastPropose with %+v, want an OK at %v", rec, f.at)
	}
}

// checkDeliveredAt fails the test unless every replica delivered O, and
// only at the timestamp its leader delivered it at.
func (f *fastCase) checkDeliveredAt(t *testing.T) {
	t.Helper()
	delivered := make([]bool, f.net.n)
	for _, e := range f.ring.CommandHistory(f.o) {
		if e.Kind != trace.KindDeliver {
			continue
		}
		if e.Time != f.at {
			t.Fatalf("node %v delivered O at %v, its leader at %v", e.Node, e.Time, f.at)
		}
		delivered[e.Node] = true
	}
	if i := slices.Index(delivered, false); i >= 0 {
		t.Fatalf("node %d never delivered O", i)
	}
}

// The leader crashes for good. An unrelated command was decided and purged
// everywhere above O first, and the GC ticks run long enough to fold it
// into any floor that heard only X's own records. Then O's FastPropose
// reaches X, and the survivors' recovery must finish O at the timestamp
// the leader applied it at.
func TestPurgeFenceKeepsCrashedLeadersFastDecision(t *testing.T) {
	f := fastDecisionWithoutX(t)
	net, x := f.net, fastX
	net.submit(0, command.Put("d", nil), nil)
	net.pump()
	for i := 0; i < 5; i++ {
		net.tick(100 * time.Millisecond)
	}
	d := command.ID{Node: 0, Seq: 1}
	if net.reps[x].hist.get(d) != nil || !slices.Contains(net.applied[x], d) {
		t.Fatal("script broken: the unrelated command was not delivered and purged at X")
	}
	if floor := net.reps[x].hist.floor; f.at.Less(floor) {
		t.Fatalf("X's floor %v passed O's timestamp %v while O was undelivered at X", floor, f.at)
	}

	net.down[fastLeader] = true
	f.lateProposeToX(t)
	for i := 0; i < 60; i++ {
		net.tick(100 * time.Millisecond)
	}
	f.checkDeliveredAt(t)
}

// The leader restarts instead, with O in its delivered set and a clock
// past O, so its new incarnation reports a Low above O. X hears nothing
// from the replicas that hold O after O's proposal: the last Lows it has
// of them are from before, above O. Only their Seen — and the restarted
// leader's, which it took from their Lows — keeps X's floor at O.
func TestPurgeFenceKeepsFastDecisionAcrossLeaderRestart(t *testing.T) {
	f := fastDecisionWithoutX(t)
	net, leader, x := f.net, timestamp.NodeID(fastLeader), timestamp.NodeID(fastX)
	stable := net.drop
	net.drop = func(m simMsg) bool {
		_, hb := m.payload.(*Heartbeat)
		return stable(m) || hb && m.to == x && m.from != leader
	}
	net.down[leader] = true
	net.tick(100 * time.Millisecond)
	predelivered := idset.New()
	predelivered.Add(f.o)
	net.reps[leader] = New(&simEP{net: net, self: leader}, protocol.ApplierFunc(func(cmd command.Command) []byte {
		net.applied[leader] = append(net.applied[leader], cmd.ID)
		return nil
	}), Config{Now: net.clock.Now, Trace: f.ring, Predelivered: predelivered, SeqFloor: f.o.Seq, ClockSeed: f.at.Seq})
	net.down[leader] = false
	for i := 0; i < 3; i++ {
		net.tick(100 * time.Millisecond)
	}
	if low := net.reps[x].lows[leader]; !f.at.Less(low) {
		t.Fatalf("script broken: X holds the restarted leader's Low at %v, want it above O's %v", low, f.at)
	}
	if floor := net.reps[x].hist.floor; f.at.Less(floor) {
		t.Fatalf("X's floor %v passed O's timestamp %v while O was undelivered at X", floor, f.at)
	}

	f.lateProposeToX(t)
	for i := 0; i < 80; i++ {
		net.tick(100 * time.Millisecond)
	}
	f.checkDeliveredAt(t)
	if !slices.Equal(net.applied[leader], []command.ID{f.o}) {
		t.Fatalf("the leader applied %v across its restart, want O once", net.applied[leader])
	}
}

func TestSlowProposeAdoptsLeaderPreds(t *testing.T) {
	r, ep := testReplica(2)
	someone := put(3, 9, "k")
	c := put(0, 1, "k")
	r.onSlowPropose(0, &SlowPropose{Cmd: c, Time: ts(5, 0), Pred: []command.ID{someone.ID}})
	reply, ok := ep.lastTo(0).(*SlowProposeReply)
	if !ok {
		t.Fatalf("no reply, sent=%v", ep.sent)
	}
	if reply.NACK {
		t.Fatal("unexpected NACK")
	}
	if len(reply.Pred) != 1 || reply.Pred[0] != someone.ID {
		t.Fatalf("slow propose pred %v, want the leader's set", reply.Pred)
	}
	if rec := r.hist.get(c.ID); rec.status != StatusSlowPending {
		t.Fatalf("status %v", rec.status)
	}
}

func TestRecoverReplyCarriesTuple(t *testing.T) {
	r, ep := testReplica(2)
	c := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: c, Time: ts(5, 0)})
	ep.clear()
	r.onRecover(3, &Recover{Ballot: 1, CmdID: c.ID})
	reply, ok := ep.lastTo(3).(*RecoverReply)
	if !ok {
		t.Fatalf("no RecoverReply, sent=%v", ep.sent)
	}
	if reply.Nop || reply.Status != StatusFastPending || reply.Time != ts(5, 0) {
		t.Fatalf("reply = %+v", reply)
	}
	// Stale (equal) ballot is refused thereafter.
	ep.clear()
	r.onRecover(4, &Recover{Ballot: 1, CmdID: c.ID})
	if got := ep.lastTo(4); got != nil {
		t.Fatalf("equal ballot answered: %v", got)
	}
	// Unknown command → NOP.
	ep.clear()
	r.onRecover(3, &Recover{Ballot: 1, CmdID: command.ID{Node: 4, Seq: 9}})
	nop, ok := ep.lastTo(3).(*RecoverReply)
	if !ok || !nop.Nop {
		t.Fatalf("want NOP reply, got %v", ep.lastTo(3))
	}
}

func TestFinishRecoveryCaseSelection(t *testing.T) {
	// Each sub-case checks which phase the recoverer starts from a given
	// RecoverySet (Fig 5, cases i–v).
	cmd := put(4, 1, "k")
	mk := func(status Status, forced bool) *RecoverReply {
		return &RecoverReply{
			Ballot: 3, CmdID: cmd.ID, Cmd: cmd, Status: status,
			Time: ts(9, 4), Pred: []command.ID{{Node: 2, Seq: 2}},
			TupleBallot: 0, Forced: forced,
		}
	}
	firstBroadcast := func(from map[timestamp.NodeID]*RecoverReply) any {
		r, ep := testReplica(0)
		rc := &recovery{ballot: 3, replies: make([]*RecoverReply, r.n)}
		for node, m := range from {
			rc.replies[node] = m
		}
		r.finishRecovery(r.hist.ensure(command.Command{ID: cmd.ID}), rc)
		if len(ep.sent) == 0 {
			return nil
		}
		return ep.sent[0].payload
	}

	// i) stable tuple → Stable phase.
	if got := firstBroadcast(map[timestamp.NodeID]*RecoverReply{1: mk(StatusStable, false)}); got != nil {
		if _, ok := got.(*Stable); !ok {
			t.Fatalf("stable case started %T", got)
		}
	} else {
		t.Fatal("stable case sent nothing")
	}
	// ii) accepted → Retry phase.
	if got := firstBroadcast(map[timestamp.NodeID]*RecoverReply{1: mk(StatusAccepted, false)}); got != nil {
		if _, ok := got.(*Retry); !ok {
			t.Fatalf("accepted case started %T", got)
		}
	} else {
		t.Fatal("accepted case sent nothing")
	}
	// iii) rejected → fresh FastPropose without whitelist.
	if got := firstBroadcast(map[timestamp.NodeID]*RecoverReply{1: mk(StatusRejected, false)}); got != nil {
		fp, ok := got.(*FastPropose)
		if !ok || fp.HasWhitelist {
			t.Fatalf("rejected case started %T (whitelist=%v)", got, ok && fp.HasWhitelist)
		}
	} else {
		t.Fatal("rejected case sent nothing")
	}
	// iv) slow-pending → SlowPropose.
	if got := firstBroadcast(map[timestamp.NodeID]*RecoverReply{1: mk(StatusSlowPending, false)}); got != nil {
		if _, ok := got.(*SlowPropose); !ok {
			t.Fatalf("slow-pending case started %T", got)
		}
	} else {
		t.Fatal("slow-pending case sent nothing")
	}
	// v) fast-pending tuples from a recovery majority → FastPropose at
	// the SAME timestamp with a whitelist.
	replies := map[timestamp.NodeID]*RecoverReply{
		1: mk(StatusFastPending, false),
		2: mk(StatusFastPending, false),
	}
	if got := firstBroadcast(replies); got != nil {
		fp, ok := got.(*FastPropose)
		if !ok {
			t.Fatalf("fast-pending case started %T", got)
		}
		if fp.Time != ts(9, 4) {
			t.Fatalf("fast-pending case changed timestamp: %v", fp.Time)
		}
		if !fp.HasWhitelist {
			t.Fatal("fast-pending case must carry a whitelist with ⌊CQ/2⌋+1 tuples")
		}
		// Both tuples list the same predecessor → it survives into the
		// whitelist.
		if len(fp.Whitelist) != 1 || (fp.Whitelist[0] != command.ID{Node: 2, Seq: 2}) {
			t.Fatalf("whitelist = %v", fp.Whitelist)
		}
	} else {
		t.Fatal("fast-pending case sent nothing")
	}
	// forced tuple wins: its preds become the whitelist verbatim.
	forcedReply := mk(StatusFastPending, true)
	forcedReply.Pred = []command.ID{{Node: 3, Seq: 3}}
	replies = map[timestamp.NodeID]*RecoverReply{
		1: mk(StatusFastPending, false),
		2: forcedReply,
	}
	if got := firstBroadcast(replies); got != nil {
		fp, ok := got.(*FastPropose)
		if !ok || !fp.HasWhitelist {
			t.Fatalf("forced case started %T", got)
		}
		if len(fp.Whitelist) != 1 || (fp.Whitelist[0] != command.ID{Node: 3, Seq: 3}) {
			t.Fatalf("forced whitelist = %v", fp.Whitelist)
		}
	} else {
		t.Fatal("forced case sent nothing")
	}
}

func TestDisableWaitRejectsInsteadOfWaiting(t *testing.T) {
	ep := &stubEP{self: 2, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }),
		Config{HeartbeatInterval: -1, DisableWait: true})
	cbar := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: cbar, Time: ts(10, 0)})
	ep.clear()
	c := put(1, 1, "k")
	r.onFastPropose(1, &FastPropose{Cmd: c, Time: ts(5, 1)})
	reply, ok := ep.lastTo(1).(*FastProposeReply)
	if !ok {
		t.Fatalf("no reply, sent=%v", ep.sent)
	}
	if !reply.NACK {
		t.Fatal("ablation must NACK where the real protocol waits")
	}
	if len(r.waiters) != 0 {
		t.Fatal("ablation queued a waiter")
	}
}

// TestStableLearnedBelowLocalPromise pins "a decision is final": a
// survivor that missed a crashed leader's Stable starts recovery, its own
// loop-backed Recover raises its promise to ballot 1, and a peer that
// holds the decision answers with echoStable at the record's original
// ballot 0. The recoverer must learn and deliver it — dropping it as stale
// leaves the command undeliverable here forever.
func TestStableLearnedBelowLocalPromise(t *testing.T) {
	r, _ := testReplica(2)
	var applied []command.ID
	setApplier(r, protocol.ApplierFunc(func(cmd command.Command) []byte {
		applied = append(applied, cmd.ID)
		return nil
	}))
	c := put(0, 1, "k")
	r.onFastPropose(0, &FastPropose{Cmd: c, Time: ts(5, 0)})
	rec := r.hist.get(c.ID)
	r.startRecovery(rec)
	r.onRecover(r.self, &Recover{Ballot: 1, CmdID: c.ID})
	if rec.promised != 1 {
		t.Fatalf("own Recover left Ballots[c] = %d, want 1", rec.promised)
	}

	r.onStable(1, &Stable{Ballot: 0, Cmd: c, Time: ts(5, 0)})
	if len(applied) != 1 || applied[0] != c.ID {
		t.Fatalf("applied %v, want [%v]: the echoed decision was dropped", applied, c.ID)
	}
	if rec.promised != 1 {
		t.Fatalf("Ballots[c] = %d after a lower-ballot Stable, want the promise kept at 1", rec.promised)
	}
}

// setApplier replaces r's applier chain after New and repeats New's probe
// for a synchronous layer, so the swapped-in chain decides the apply path.
func setApplier(r *Replica, app protocol.Applier) {
	r.app = app
	r.appAt, _ = app.(protocol.TimestampedApplier)
}

// inlineChain is a chain with no synchronous facet that completes every
// command on the caller's goroutine, like the rebalance gate's pass path.
type inlineChain struct{}

func (inlineChain) ApplyDeferred(_ command.Command, _ timestamp.Timestamp, done protocol.Completion) {
	done.Complete(protocol.Result{})
}

// TestSlowReportPrecedesClientAck pins the order a client can observe on
// both apply paths: by the time its callback runs, the slow-command report
// has been emitted (TestSlowCommandLog read the reports right after the
// callback woke it and found none about once in 200 runs).
func TestSlowReportPrecedesClientAck(t *testing.T) {
	for _, path := range []string{"synchronous", "deferred"} {
		t.Run(path, func(t *testing.T) {
			r, _ := testReplica(0)
			if path == "deferred" {
				setApplier(r, inlineChain{})
			}
			var order []string
			r.cfg.SlowThreshold = time.Nanosecond
			r.cfg.SlowLog = func(string, ...any) { order = append(order, "report") }
			c := put(0, 1, "k")
			r.hist.ensure(c).coord = &coordinator{cmd: c, proposedAt: r.now.Add(-time.Second),
				done: func(protocol.Result) { order = append(order, "done") }}

			r.onStable(0, &Stable{Cmd: c, Time: ts(1, 0)})
			if len(order) != 2 || order[0] != "report" || order[1] != "done" {
				t.Fatalf("observed %v, want [report done]", order)
			}
		})
	}
}

// Delivery acks are one bit per node: the leader re-sends a delivered
// decision to exactly the replicas whose bit is clear — a duplicate ack
// counts once — and the full set queues the purge, once, and the purge leaves
// nothing behind.
func TestStableResentOnlyToReplicasOwingAnAck(t *testing.T) {
	r, ep := testReplica(0) // five nodes
	cmd := put(0, 1, "k")
	rec := r.hist.ensure(cmd)
	r.hist.setTimestamp(rec, ts(5, 0))
	rec.status, rec.delivered = StatusStable, true
	rec.coord = &coordinator{cmd: cmd, phase: phaseStable, stableAt: r.now}
	ack := &StableAckBatch{IDs: []command.ID{cmd.ID}}
	for _, from := range []timestamp.NodeID{0, 3, 3} {
		r.onStableAckBatch(from, ack)
	}

	ep.clear()
	r.retransmitStables(r.now.Add(2 * r.cfg.RetransmitAfter))
	var resentTo []timestamp.NodeID
	for _, m := range ep.sent {
		if st, ok := m.payload.(*Stable); !ok || st.Cmd.ID != cmd.ID {
			t.Fatalf("retransmission sent %#v", m.payload)
		}
		resentTo = append(resentTo, m.to)
	}
	if want := []timestamp.NodeID{1, 2, 4}; !slices.Equal(resentTo, want) {
		t.Fatalf("decision re-sent to %v, want %v (0 and 3 acknowledged)", resentTo, want)
	}

	for _, from := range []timestamp.NodeID{1, 2} {
		r.onStableAckBatch(from, ack)
	}
	if len(r.purgePending) != 0 {
		t.Fatal("purge queued with node 4's ack outstanding")
	}
	r.onStableAckBatch(4, ack)
	r.onStableAckBatch(4, ack) // a duplicate of the last ack must not queue a second purge
	if !slices.Equal(r.purgePending, []command.ID{cmd.ID}) {
		t.Fatalf("after the last ack: purgePending %v, want the command once", r.purgePending)
	}
	// The purge takes the ack word with the record; an ack that trails it
	// finds nothing to mark and leaves nothing behind.
	r.onPurgeBatch(0, &PurgeBatch{IDs: r.purgePending})
	r.onStableAckBatch(2, ack)
	if r.hist.get(cmd.ID) != nil || len(r.hist.recs) != 0 {
		t.Fatalf("a trailing ack left state behind: %d record(s)", len(r.hist.recs))
	}
}

// Vote and ack sets hold node IDs 0..63; a larger cluster must be refused
// at construction, not lose the 65th node's votes at run time.
func TestNewRefusesMoreNodesThanAVoteSetHolds(t *testing.T) {
	app := protocol.ApplierFunc(func(command.Command) []byte { return nil })
	New(&stubEP{n: quorum.MaxNodes}, app, Config{HeartbeatInterval: -1})
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted %d peers", quorum.MaxNodes+1)
		}
	}()
	New(&stubEP{n: quorum.MaxNodes + 1}, app, Config{HeartbeatInterval: -1})
}

// A message is immutable once sent: memnet, tcpnet's loopback and the
// benchmark's loop endpoint hand one pointer to every receiver. Two
// replicas get the same two Stable messages for a pair of commands that
// list each other as predecessors, in opposite orders, so each takes a
// different branch of breakLoop — and each must drop the predecessor from
// its own copy, leaving the message and the other replica's record alone.
func TestStableMessageSurvivesLoopBreaking(t *testing.T) {
	a, b := put(0, 1, "k"), put(1, 1, "k")
	// Spare capacity, as a slice cut from a decoder's or a union's buffer
	// has: an in-place removal would not even reallocate.
	predOf := func(id command.ID) []command.ID { return append(make([]command.ID, 0, 4), id) }
	stableA := &Stable{Cmd: a, Time: ts(3, 0), Pred: predOf(b.ID)}
	stableB := &Stable{Cmd: b, Time: ts(7, 1), Pred: predOf(a.ID)}

	deliver := func(first, second *Stable) (*Replica, *[]command.ID) {
		r, _ := testReplica(2)
		applied := &[]command.ID{}
		setApplier(r, protocol.ApplierFunc(func(cmd command.Command) []byte {
			*applied = append(*applied, cmd.ID)
			return nil
		}))
		r.onStable(first.Cmd.ID.Node, first)
		r.onStable(second.Cmd.ID.Node, second)
		return r, applied
	}
	check := func(who string, r *Replica, applied []command.ID) {
		t.Helper()
		if !slices.Equal(applied, []command.ID{a.ID, b.ID}) {
			t.Fatalf("%s applied %v, want [a b]", who, applied)
		}
		if pa, pb := r.hist.get(a.ID).pred, r.hist.get(b.ID).pred; len(pa) != 0 || !slices.Equal(pb, []command.ID{a.ID}) {
			t.Fatalf("%s holds pred(a) = %v, pred(b) = %v, want [] and [a]", who, pa, pb)
		}
		if !slices.Equal(stableA.Pred, []command.ID{b.ID}) || !slices.Equal(stableB.Pred, []command.ID{a.ID}) {
			t.Fatalf("after %s delivered, the messages read Pred %v and %v", who, stableA.Pred, stableB.Pred)
		}
	}
	// b first: a arrives with the higher-timestamped b in its own set.
	r1, applied1 := deliver(stableB, stableA)
	check("the first replica", r1, *applied1)
	// a first: it is parked on b when b arrives and unhooks it.
	r2, applied2 := deliver(stableA, stableB)
	check("the second replica", r2, *applied2)
	check("the first replica, after the second delivered,", r1, *applied1)
}

// The proposer's side of the same rule: replies are merged into the
// coordinator's set by union, the retry sends that set, and later replies
// are merged again — and no message, received or sent, changes under it.
func TestRepliesSurviveTheCoordinatorsUnions(t *testing.T) {
	r, ep := testReplica(0)
	r.onSubmit(command.Put("k", nil), nil)
	id := command.ID{Node: 0, Seq: 1}
	p, q, s, z := command.ID{Node: 1, Seq: 5}, command.ID{Node: 2, Seq: 5}, command.ID{Node: 3, Seq: 5}, command.ID{Node: 1, Seq: 9}
	set := func(ids ...command.ID) []command.ID { return append(make([]command.ID, 0, 8), ids...) }
	replies := []*FastProposeReply{
		{CmdID: id, Time: ts(1, 0), Pred: set(p, s)},
		{CmdID: id, Time: ts(9, 2), Pred: set(q, s), NACK: true},
		{CmdID: id, Time: ts(1, 0), Pred: set(p)},
	}
	want := [][]command.ID{{p, s}, {q, s}, {p}}
	ep.clear()
	for from, m := range replies {
		r.onFastProposeReply(timestamp.NodeID(from+1), m)
	}
	retry, ok := ep.lastTo(1).(*Retry)
	if !ok || !slices.Equal(retry.Pred, []command.ID{p, q, s}) {
		t.Fatalf("a rejection within a classic quorum should retry with the union [p q s]; sent %+v", ep.lastTo(1))
	}
	for from, pred := range [][]command.ID{set(z), nil, set(p, z)} {
		r.onRetryReply(timestamp.NodeID(from+1), &RetryReply{CmdID: id, Time: retry.Time, Pred: pred})
	}
	stable, ok := ep.lastTo(1).(*Stable)
	if !ok || !slices.Equal(stable.Pred, []command.ID{p, z, q, s}) {
		t.Fatalf("decision should carry [p z q s]; sent %+v", ep.lastTo(1))
	}
	for i, m := range replies {
		if !slices.Equal(m.Pred, want[i]) {
			t.Fatalf("reply %d reads Pred %v after being merged, was %v", i, m.Pred, want[i])
		}
	}
	if !slices.Equal(retry.Pred, []command.ID{p, q, s}) {
		t.Fatalf("the Retry reads Pred %v after later replies were merged", retry.Pred)
	}
}
