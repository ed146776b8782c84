package caesar

import (
	"slices"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// recovery is the state of one in-flight recovery prepare (Fig 5): a
// Paxos-like ballot is raised for the orphaned command and a classic quorum
// reports its tuples, from which the new leader deduces how far the old one
// got. replies is indexed by node ID, so the case analysis reads the
// tuples in node order.
type recovery struct {
	ballot   uint32
	votes    quorum.Tracker
	replies  []*RecoverReply
	deadline time.Time
}

// onSuspect schedules recovery for every command led by the suspected node
// that this replica knows is unfinished: records still short of stable,
// plus commands referenced by predecessor sets we are waiting on but whose
// payload we never saw. Attempts are staggered by this node's rank among
// the survivors so one recoverer usually wins the ballot race.
func (r *Replica) onSuspect(q timestamp.NodeID, now time.Time, open []*record) {
	if q == r.self {
		return
	}
	delay := time.Duration(r.fd.Rank()) * r.cfg.RecoveryBackoff
	scheduled := 0
	for _, rec := range open {
		if rec.id().Node == q && orphaned(rec) {
			scheduleRecovery(rec, now.Add(delay))
			scheduled++
		}
	}
	r.cfg.Flight.Record(flight.KindSuspect, r.cfg.FlightGroup, command.ID{},
		"peer %v suspected; %d unfinished command(s) scheduled for takeover in %v", q, scheduled, delay)
}

// checkRecoveryDeadlines fires scheduled recoveries that are due and
// retries in-flight ones that could not gather a quorum in time. Retries
// are re-scheduled with the same rank stagger the initial takeover gets:
// dueling recoverers whose prepares preempted each other share one
// deadline arithmetic, and an unstaggered retry would re-collide them at
// identical instants every round — the suspected residue behind the rare
// post-restart liveness stall (see TestStrandedDuelRetriesConverge).
func (r *Replica) checkRecoveryDeadlines(now time.Time, open []*record) {
	for _, rec := range open {
		if !rec.recoverAt.IsZero() && !now.Before(rec.recoverAt) {
			rec.recoverAt = time.Time{}
			r.startRecovery(rec)
		}
		if rc := rec.recovery; rc != nil && now.After(rc.deadline) {
			rec.recovery = nil
			// Rank like onSuspect (dense among survivors, so some
			// survivor always retries with zero delay), not raw node
			// ID — with node 0 crashed, an ID stagger would add one
			// idle backoff to every retry round.
			scheduleRecovery(rec, now.Add(time.Duration(r.fd.Rank())*r.cfg.RecoveryBackoff))
		}
	}
}

// startRecovery raises a new ballot for the command and asks everyone for
// their tuples (Fig 5, lines 1–4).
func (r *Replica) startRecovery(rec *record) {
	id := rec.id()
	if r.delivered.Has(id) || rec.status == StatusStable {
		return // already finished
	}
	ballot := max(rec.promised, rec.ballot) + 1
	rec.recovery = &recovery{
		ballot:   ballot,
		votes:    quorum.NewTracker(r.cq),
		replies:  make([]*RecoverReply, r.n),
		deadline: r.now.Add(r.cfg.RecoveryTimeout()),
	}
	r.met.Recoveries.Inc()
	if r.ctd != nil && rec.status != StatusNone {
		for _, k := range rec.cmd.Keys() {
			r.ctd.Recovery(k)
		}
	}
	r.cfg.Trace.Record(r.self, trace.KindRecover, id, timestamp.Timestamp{})
	r.cfg.Flight.Record(flight.KindRecovery, r.cfg.FlightGroup, id,
		"recovery prepare at ballot %d", ballot)
	// The ballot is not pre-promised locally: our own reply arrives via
	// the runtime's loopback like everyone else's (Fig 5, line 28 needs
	// Ballot > Ballots[c] to hold at the receiver, self included).
	r.Broadcast(&Recover{Ballot: ballot, CmdID: id})
}

// tupleReply reports rec's tuple to a recoverer.
func tupleReply(rec *record, ballot uint32) *RecoverReply {
	return &RecoverReply{
		Ballot:      ballot,
		CmdID:       rec.id(),
		Cmd:         rec.cmd,
		Status:      rec.status,
		Time:        rec.ts,
		Pred:        rec.pred,
		TupleBallot: rec.ballot,
		Forced:      rec.forced,
	}
}

// onRecover answers a recovery prepare with this replica's tuple (Fig 5,
// lines 28–33). The promise needs a home, so a command never heard of gets
// a record by name.
func (r *Replica) onRecover(from timestamp.NodeID, m *Recover) {
	rec := r.hist.ensure(command.Command{ID: m.CmdID})
	if rec.status == StatusStable || rec.delivered {
		// The decision already exists; replay it to the recoverer
		// regardless of ballots — decisions are final.
		r.echoStable(from, rec)
		return
	}
	if m.Ballot <= rec.promised {
		return
	}
	rec.promised = m.Ballot
	if rec.status == StatusNone {
		r.Send(from, &RecoverReply{Ballot: m.Ballot, CmdID: m.CmdID, Nop: true})
	} else {
		r.Send(from, tupleReply(rec, m.Ballot))
	}
}

// onRecoverReply collects tuples until a classic quorum responded, then
// decides how to finish the command (Fig 5, lines 5–27).
func (r *Replica) onRecoverReply(from timestamp.NodeID, m *RecoverReply) {
	rec := r.hist.get(m.CmdID)
	if rec == nil || rec.recovery == nil || m.Ballot != rec.recovery.ballot {
		return
	}
	rc := rec.recovery
	if uint(from) >= uint(len(rc.replies)) || !rc.votes.Add(int32(from)) {
		return
	}
	rc.replies[from] = m
	if rc.votes.Reached() {
		rec.recovery = nil
		r.finishRecovery(rec, rc)
	}
}

// finishRecovery implements the case analysis of Fig 5 over the tuples at
// the highest ballot. Where the figure says "some tuple", the rule is the
// one from the lowest node ID: the same quorum always re-proposes the same
// thing.
func (r *Replica) finishRecovery(rec *record, rc *recovery) {
	if r.delivered.Has(rec.id()) {
		return
	}
	// The initiator's own tuple always participates: the quorum may have
	// filled up with NOPs from ignorant nodes before the loopback reply
	// arrived, and dropping local knowledge could orphan the command
	// forever.
	if rc.replies[r.self] == nil && rec.status != StatusNone {
		rc.replies[r.self] = tupleReply(rec, rc.ballot)
	}
	// RecoverySet: non-NOP tuples at the maximum tuple ballot.
	var maxBallot uint32
	for _, m := range rc.replies {
		if m != nil && !m.Nop {
			maxBallot = max(maxBallot, m.TupleBallot)
		}
	}
	set := make([]*RecoverReply, 0, len(rc.replies))
	for _, m := range rc.replies {
		if m != nil && !m.Nop && m.TupleBallot == maxBallot {
			set = append(set, m)
		}
	}
	if len(set) == 0 {
		// Nobody in the quorum (nor we) knows the command: it was
		// either purged (already delivered everywhere) or is known only
		// outside this quorum. If it still blocks delivery here, try
		// again later — a retry reaches whoever holds it.
		if len(rec.parked) > 0 {
			rec.recoverAt = r.now.Add(r.cfg.RecoveryTimeout())
		}
		return
	}

	// m is the tuple that decides the case: the first one, in node
	// order, of the most advanced status present (Fig 5 tests stable,
	// accepted, rejected, slow-pending in that order).
	var m *RecoverReply
	for _, status := range []Status{StatusStable, StatusAccepted, StatusRejected, StatusSlowPending} {
		if i := slices.IndexFunc(set, func(m *RecoverReply) bool { return m.Status == status }); i >= 0 {
			m = set[i]
			break
		}
	}

	// A (possibly replaced) coordinator at the recovery ballot. Replacing
	// this replica's own coordinator keeps the client's callback and the
	// submit instant: the command is as old as its submission, however
	// many ballots it takes.
	newCoord := func(cmd command.Command) *coordinator {
		c := r.coords.Next()
		c.cmd, c.ballot, c.proposedAt = cmd, rc.ballot, r.now
		if old := rec.coord; old != nil {
			c.done, c.proposedAt = old.done, old.proposedAt
		}
		r.hist.ensure(cmd).coord = c
		return c
	}

	switch {
	case m == nil:
		r.reproposeFastPending(set, newCoord(set[0].Cmd))

	case m.Status == StatusStable:
		// i) someone saw the decision: replay it.
		c := newCoord(m.Cmd)
		c.ts = m.Time
		c.pred = m.Pred
		c.slowPath = true
		r.startStable(c)

	case m.Status == StatusAccepted:
		// ii) an accepted tuple survives any decision that was taken:
		// re-run the retry phase with it.
		r.startRetry(newCoord(m.Cmd), m.Time, m.Pred)

	case m.Status == StatusRejected:
		// iii) the command was rejected and cannot have been decided
		// at its old timestamp: start over with a fresh one.
		r.startFastProposal(newCoord(m.Cmd), r.clock.Next(), nil, false)

	default:
		// iv) slow-pending: re-run the slow proposal phase.
		r.startSlowProposal(newCoord(m.Cmd), m.Time, m.Pred)
	}
}

// reproposeFastPending is case v) of Fig 5 (lines 16–25): only
// fast-pending tuples, so the command might have been decided fast at this
// timestamp — it is re-proposed at the same timestamp with a whitelist
// constraining the predecessors.
func (r *Replica) reproposeFastPending(set []*RecoverReply, c *coordinator) {
	ts := set[0].Time
	var pred []command.ID
	var forced *RecoverReply
	for _, m := range set {
		ts = timestamp.Max(ts, m.Time)
		pred = command.UnionIDs(pred, m.Pred)
		if m.Forced && forced == nil {
			forced = m
		}
	}
	var whitelist []command.ID
	hasWhitelist := false
	switch {
	case forced != nil:
		// A previous recovery already forced a predecessor set; reuse it.
		whitelist = forced.Pred
		hasWhitelist = true
	case len(set) >= quorum.RecoveryMajority(r.n):
		// c̄ may have been a predecessor in a fast decision unless
		// ⌊CQ/2⌋+1 tuples omit it (that many tuples intersect every fast
		// quorum). pred is walked in order, so the whitelist comes out a
		// set.
		maj := quorum.RecoveryMajority(r.n)
		whitelist = make([]command.ID, 0, len(pred))
		for _, id := range pred {
			omitted := 0
			for _, m := range set {
				if !command.ContainsID(m.Pred, id) {
					omitted++
				}
			}
			if omitted < maj {
				whitelist = append(whitelist, id)
			}
		}
		hasWhitelist = true
	}
	r.startFastProposal(c, ts, whitelist, hasWhitelist)
}

// RecoveryTimeout returns how long a recovery prepare may wait for its
// quorum before being retried at a higher ballot.
func (c Config) RecoveryTimeout() time.Duration {
	return 4 * c.SuspectTimeout
}

// stuckTimeout is how long a command may sit pre-stable before this
// replica recovers it even though its leader looks alive: 3×
// SuspectTimeout. The failure detector only catches leaders that stay
// silent; a leader that crashed and RESTARTED heartbeats again but has
// lost its in-flight commands, which would otherwise stay pending
// forever — blocking the wait condition and the delivery of everything
// conflicting with them. Recovery is ballot-protected, so firing on a
// merely slow command is safe. Only active when failure handling is on.
func (c Config) stuckTimeout() time.Duration {
	return 3 * c.SuspectTimeout
}
