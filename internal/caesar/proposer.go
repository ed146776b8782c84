package caesar

import (
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// coordPhase is the leader-side phase of a command (Fig 4's columns).
type coordPhase uint8

const (
	phaseFastProposal coordPhase = iota + 1
	phaseSlowProposal
	phaseRetry
	phaseStable
)

// coordinator is the leader-side state for one command this replica leads,
// either because a client submitted it here or because this replica
// recovered it; the command's record points at it.
type coordinator struct {
	cmd    command.Command
	ballot uint32
	phase  coordPhase

	// ts is the timestamp of the current phase; pred accumulates the
	// union of the predecessor sets reported by the replying quorum. It
	// may share storage with a reply or with the proposal that carried it
	// (UnionIDs returns an argument when it can), so it is only ever
	// replaced, never written into.
	ts   timestamp.Timestamp
	pred []command.ID

	// votes, anyNack and maxTs (the highest timestamp seen across the
	// replies) are the phase's tally; see vote.
	votes   quorum.Tracker
	anyNack bool
	maxTs   timestamp.Timestamp

	// deadline is the fast-quorum timeout (§V-D).
	deadline time.Time
	timedOut bool

	// slowPath marks that this command did not complete as a fast
	// decision (Fig 10 accounting).
	slowPath bool
	counted  bool

	// done is the client's callback when the command was submitted here
	// (nil once it fired, and for a foreign command this replica
	// recovered); proposedAt is the submit instant its latency is measured
	// from — the takeover instant for a recovered foreign command. A
	// coordinator that replaces another (recovery of a command this
	// replica already led) inherits both.
	done       protocol.DoneFunc
	proposedAt time.Time
	// instrumentation for the Fig 11a breakdown.
	retryStart time.Time
	stableAt   time.Time
	// lastResend throttles Stable retransmission to unacked replicas.
	lastResend time.Time
}

// startFastProposal broadcasts a FastPropose and arms the fast-quorum
// timeout (Fig 4, lines P1–P2).
func (r *Replica) startFastProposal(c *coordinator, ts timestamp.Timestamp, whitelist []command.ID, hasWhitelist bool) {
	c.phase = phaseFastProposal
	c.ts = ts
	c.maxTs = ts
	c.pred = nil
	c.votes = quorum.NewTracker(r.fq)
	c.anyNack = false
	c.timedOut = false
	c.deadline = r.now.Add(r.cfg.FastTimeout)
	r.Broadcast(&FastPropose{
		Ballot:       c.ballot,
		Cmd:          c.cmd,
		Time:         ts,
		Whitelist:    whitelist,
		HasWhitelist: hasWhitelist,
	})
}

// vote books one reply towards the quorum of a phase: the sender's vote,
// its predecessors, its timestamp (the retry phase must exceed every
// suggestion, §IV-B) and whether it rejected. It returns nil unless the
// reply answers the coordinator this replica runs for the command, in that
// phase and ballot, from a node that has not voted yet.
func (r *Replica) vote(from timestamp.NodeID, id command.ID, phase coordPhase, ballot uint32, ts timestamp.Timestamp, pred []command.ID, nack bool) *coordinator {
	rec := r.hist.get(id)
	if rec == nil || rec.coord == nil {
		return nil
	}
	c := rec.coord
	if c.phase != phase || ballot != c.ballot || !c.votes.Add(int32(from)) {
		return nil
	}
	c.pred = command.UnionIDs(c.pred, pred)
	c.maxTs = timestamp.Max(c.maxTs, ts)
	if nack {
		c.anyNack = true
		r.met.Nacks.Inc()
	}
	return c
}

// onFastProposeReply accumulates one FASTPROPOSER vote (Fig 4, lines
// P3–P10).
func (r *Replica) onFastProposeReply(from timestamp.NodeID, m *FastProposeReply) {
	if c := r.vote(from, m.CmdID, phaseFastProposal, m.Ballot, m.Time, m.Pred, m.NACK); c != nil {
		r.evaluateFastProposal(c)
	}
}

// evaluateFastProposal decides whether the fast proposal phase can conclude
// (Fig 4, lines P5–P10):
//   - a rejection among a classic quorum forces the retry phase (a single
//     NACK implies every quorum would contain one, §IV-B);
//   - a full fast quorum of OKs is a fast decision;
//   - after the timeout, a classic quorum of OKs moves to the slow
//     proposal phase (§V-D).
func (r *Replica) evaluateFastProposal(c *coordinator) {
	n := c.votes.Count()
	switch {
	case c.anyNack && n >= r.cq:
		r.startRetry(c, c.maxTs, c.pred)
	case !c.anyNack && n >= r.fq:
		r.startStable(c)
	case c.timedOut && !c.anyNack && n >= r.cq:
		r.startSlowProposal(c, c.ts, c.pred)
	}
}

// startSlowProposal broadcasts a SlowPropose carrying the predecessors
// gathered so far (Fig 4, lines P21–P23).
func (r *Replica) startSlowProposal(c *coordinator, ts timestamp.Timestamp, pred []command.ID) {
	c.phase = phaseSlowProposal
	c.slowPath = true
	c.ts = ts
	c.maxTs = ts
	c.pred = pred
	c.votes = quorum.NewTracker(r.cq)
	c.anyNack = false
	r.cfg.Trace.Record(r.self, trace.KindSlowPropose, c.cmd.ID, ts)
	r.Broadcast(&SlowPropose{Ballot: c.ballot, Cmd: c.cmd, Time: ts, Pred: pred})
}

// onSlowProposeReply accumulates one SLOWPROPOSER vote; a classic quorum
// settles it (Fig 4, lines P24–P30).
func (r *Replica) onSlowProposeReply(from timestamp.NodeID, m *SlowProposeReply) {
	c := r.vote(from, m.CmdID, phaseSlowProposal, m.Ballot, m.Time, m.Pred, m.NACK)
	switch {
	case c == nil || c.votes.Count() < r.cq:
	case c.anyNack:
		r.startRetry(c, c.maxTs, c.pred)
	default:
		r.startStable(c)
	}
}

// startRetry broadcasts a Retry at a timestamp greater than every
// suggestion received (Fig 4, lines R1–R4).
func (r *Replica) startRetry(c *coordinator, ts timestamp.Timestamp, pred []command.ID) {
	if c.phase == phaseFastProposal || c.phase == phaseSlowProposal {
		r.met.ProposePhase.Add(r.now.Sub(c.proposedAt))
	}
	c.phase = phaseRetry
	c.slowPath = true
	c.ts = ts
	c.pred = pred
	c.votes = quorum.NewTracker(r.cq)
	c.retryStart = r.now
	r.met.Retries.Inc()
	if r.ctd != nil {
		// Charge the retry to the command's own keys: they are the
		// contended ones (some acceptor held a conflicting record above
		// the proposed timestamp on one of them).
		for _, k := range c.cmd.Keys() {
			r.ctd.Retry(k)
		}
	}
	r.cfg.Trace.Record(r.self, trace.KindRetry, c.cmd.ID, ts)
	r.Broadcast(&Retry{Ballot: c.ballot, Cmd: c.cmd, Time: ts, Pred: pred})
}

// onRetryReply accumulates one RETRYR vote; retries cannot be rejected, so
// a classic quorum finalises the decision (Fig 4, lines R2–R4).
func (r *Replica) onRetryReply(from timestamp.NodeID, m *RetryReply) {
	if c := r.vote(from, m.CmdID, phaseRetry, m.Ballot, m.Time, m.Pred, false); c != nil && c.votes.Reached() {
		r.startStable(c)
	}
}

// startStable broadcasts the decision (Fig 4, line S1) and books the
// decision-path metrics. A replica that voted in the deciding phase holds
// the command already, so its Stable names it by ID alone; the others get
// it whole. A decision that mixes both forms allocates them together.
func (r *Replica) startStable(c *coordinator) {
	now := r.now
	switch c.phase {
	case phaseRetry:
		r.met.RetryPhase.Add(now.Sub(c.retryStart))
	case phaseFastProposal, phaseSlowProposal:
		r.met.ProposePhase.Add(now.Sub(c.proposedAt))
	}
	if !c.counted {
		c.counted = true
		if c.slowPath {
			r.met.SlowDecisions.Inc()
		} else {
			r.met.FastDecisions.Inc()
		}
	}
	c.phase = phaseStable
	c.stableAt = now
	whole := Stable{Ballot: c.ballot, Cmd: c.cmd, Time: c.ts, Pred: c.pred}
	named := whole
	named.Cmd = command.Command{ID: c.cmd.ID}
	var toVoter, toOther *Stable
	switch c.votes.Count() {
	case 0:
		toOther = new(Stable)
		*toOther = whole
	case r.n:
		toVoter = new(Stable)
		*toVoter = named
	default:
		pair := &[2]Stable{named, whole}
		toVoter, toOther = &pair[0], &pair[1]
	}
	for _, p := range r.peers {
		if c.votes.Has(int32(p)) {
			r.Send(p, toVoter)
		} else {
			r.Send(p, toOther)
		}
	}
}
