package caesar

import (
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
// got.
type recovery struct {
	id       command.ID
	ballot   uint32
	votes    quorum.Tracker
	replies  map[timestamp.NodeID]*RecoverReply
	deadline time.Time
}

// onSuspect schedules recovery for every command led by the suspected node
// that this replica knows is unfinished: records still short of stable,
// plus commands referenced by predecessor sets we are waiting on but whose
// payload we never saw. Attempts are staggered by this node's rank among
// the survivors so one recoverer usually wins the ballot race.
func (r *Replica) onSuspect(q timestamp.NodeID, now time.Time) {
	if q == r.self {
		return
	}
	delay := time.Duration(r.fd.Rank()) * r.cfg.RecoveryBackoff
	startAt := now.Add(delay)
	schedule := func(id command.ID) {
		if _, active := r.recoveries[id]; active {
			return
		}
		if _, scheduled := r.scheduledRecovery[id]; scheduled {
			return
		}
		r.scheduledRecovery[id] = startAt
	}
	scheduled := 0
	for id, rec := range r.hist.recs {
		if id.Node == q && rec.status != StatusStable && !rec.delivered {
			schedule(id)
			scheduled++
		}
	}
	for id := range r.awaited {
		if id.Node == q && !r.delivered.Has(id) && r.hist.get(id) == nil {
			schedule(id)
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
func (r *Replica) checkRecoveryDeadlines(now time.Time) {
	for id, at := range r.scheduledRecovery {
		if now.Before(at) {
			continue
		}
		delete(r.scheduledRecovery, id)
		r.startRecovery(id)
	}
	for id, rc := range r.recoveries {
		if now.After(rc.deadline) {
			delete(r.recoveries, id)
			if _, scheduled := r.scheduledRecovery[id]; !scheduled {
				// Rank like onSuspect (dense among survivors, so some
				// survivor always retries with zero delay), not raw node
				// ID — with node 0 crashed, an ID stagger would add one
				// idle backoff to every retry round.
				r.scheduledRecovery[id] = now.Add(time.Duration(r.fd.Rank()) * r.cfg.RecoveryBackoff)
			}
		}
	}
}

// startRecovery raises a new ballot for the command and asks everyone for
// their tuples (Fig 5, lines 1–4).
func (r *Replica) startRecovery(id command.ID) {
	rec := r.hist.get(id)
	if r.delivered.Has(id) || (rec != nil && rec.status == StatusStable) {
		return // already finished
	}
	ballot := r.ballots[id]
	if rec != nil && rec.ballot > ballot {
		ballot = rec.ballot
	}
	ballot++
	rc := &recovery{
		id:       id,
		ballot:   ballot,
		votes:    quorum.NewTracker(r.cq),
		replies:  make(map[timestamp.NodeID]*RecoverReply, r.cq),
		deadline: r.now.Add(r.cfg.RecoveryTimeout()),
	}
	r.recoveries[id] = rc
	r.met.Recoveries.Inc()
	if r.ctd != nil && rec != nil {
		for _, k := range rec.cmd.Keys() {
			r.ctd.Recovery(k)
		}
	}
	r.cfg.Trace.Record(r.self, trace.KindRecover, id, timestamp.Timestamp{})
	r.cfg.Flight.Record(flight.KindRecovery, r.cfg.FlightGroup, id,
		"recovery prepare at ballot %d", ballot)
	// The ballot is not pre-promised locally: our own reply arrives via
	// the transport loopback like everyone else's (Fig 5, line 28 needs
	// Ballot > Ballots[c] to hold at the receiver, self included).
	r.ep.Broadcast(&Recover{Ballot: ballot, CmdID: id})
}

// onRecover answers a recovery prepare with this replica's tuple (Fig 5,
// lines 28–33).
func (r *Replica) onRecover(from timestamp.NodeID, m *Recover) {
	rec := r.hist.get(m.CmdID)
	if rec != nil && (rec.status == StatusStable || rec.delivered) {
		// The decision already exists; replay it to the recoverer
		// regardless of ballots — decisions are final.
		r.echoStable(from, rec)
		return
	}
	if m.Ballot <= r.ballots[m.CmdID] {
		return
	}
	r.ballots[m.CmdID] = m.Ballot
	reply := &RecoverReply{Ballot: m.Ballot, CmdID: m.CmdID}
	if rec == nil || rec.status == StatusNone {
		reply.Nop = true
	} else {
		reply.Cmd = rec.cmd
		reply.Status = rec.status
		reply.Time = rec.ts
		reply.Pred = rec.pred.Slice()
		reply.TupleBallot = rec.ballot
		reply.Forced = rec.forced
	}
	r.send(from, reply)
}

// onRecoverReply collects tuples until a classic quorum responded, then
// decides how to finish the command (Fig 5, lines 5–27).
func (r *Replica) onRecoverReply(from timestamp.NodeID, m *RecoverReply) {
	rc := r.recoveries[m.CmdID]
	if rc == nil || m.Ballot != rc.ballot {
		return
	}
	if !rc.votes.Add(int32(from)) {
		return
	}
	rc.replies[from] = m
	if rc.votes.Reached() {
		delete(r.recoveries, m.CmdID)
		r.finishRecovery(rc)
	}
}

// finishRecovery implements the case analysis of Fig 5 over the tuples at
// the highest ballot.
func (r *Replica) finishRecovery(rc *recovery) {
	if r.delivered.Has(rc.id) {
		return
	}
	// The initiator's own tuple always participates: the quorum may have
	// filled up with NOPs from ignorant nodes before the loopback reply
	// arrived, and dropping local knowledge could orphan the command
	// forever.
	if _, ok := rc.replies[r.self]; !ok {
		if rec := r.hist.get(rc.id); rec != nil && rec.status != StatusNone {
			rc.replies[r.self] = &RecoverReply{
				Ballot:      rc.ballot,
				CmdID:       rc.id,
				Cmd:         rec.cmd,
				Status:      rec.status,
				Time:        rec.ts,
				Pred:        rec.pred.Slice(),
				TupleBallot: rec.ballot,
				Forced:      rec.forced,
			}
		}
	}
	// RecoverySet: non-NOP tuples at the maximum tuple ballot.
	var maxBallot uint32
	for _, m := range rc.replies {
		if !m.Nop && m.TupleBallot > maxBallot {
			maxBallot = m.TupleBallot
		}
	}
	set := make([]*RecoverReply, 0, len(rc.replies))
	for _, m := range rc.replies {
		if !m.Nop && m.TupleBallot == maxBallot {
			set = append(set, m)
		}
	}
	if len(set) == 0 {
		// Nobody in the quorum (nor we) knows the command: it was
		// either purged (already delivered everywhere) or is known only
		// outside this quorum. If it still blocks delivery here, try
		// again later — a retry reaches whoever holds it.
		if _, awaited := r.awaited[rc.id]; awaited && !r.delivered.Has(rc.id) {
			r.scheduledRecovery[rc.id] = r.now.Add(r.cfg.RecoveryTimeout())
		}
		return
	}

	pick := func(status Status) *RecoverReply {
		for _, m := range set {
			if m.Status == status {
				return m
			}
		}
		return nil
	}

	// A (possibly replaced) coordinator at the recovery ballot.
	newCoord := func(cmd command.Command) *coordinator {
		c := &coordinator{cmd: cmd, ballot: rc.ballot, proposedAt: r.now}
		r.proposals[rc.id] = c
		return c
	}

	switch {
	case pick(StatusStable) != nil:
		// i) someone saw the decision: replay it.
		m := pick(StatusStable)
		c := newCoord(m.Cmd)
		c.ts = m.Time
		c.pred = command.NewIDSet(m.Pred...)
		c.slowPath = true
		r.startStable(c)

	case pick(StatusAccepted) != nil:
		// ii) an accepted tuple survives any decision that was taken:
		// re-run the retry phase with it.
		m := pick(StatusAccepted)
		c := newCoord(m.Cmd)
		r.startRetry(c, m.Time, command.NewIDSet(m.Pred...))

	case pick(StatusRejected) != nil:
		// iii) the command was rejected and cannot have been decided
		// at its old timestamp: start over with a fresh one.
		m := pick(StatusRejected)
		c := newCoord(m.Cmd)
		r.startFastProposal(c, r.clock.Next(), nil, false)

	case pick(StatusSlowPending) != nil:
		// iv) re-run the slow proposal phase.
		m := pick(StatusSlowPending)
		c := newCoord(m.Cmd)
		r.startSlowProposal(c, m.Time, command.NewIDSet(m.Pred...))

	default:
		// v) only fast-pending tuples: the command might have been
		// decided fast at this timestamp, so re-propose it at the same
		// timestamp with a whitelist constraining the predecessors
		// (Fig 5, lines 16–25).
		ts := set[0].Time
		var pred command.IDSet
		var forced *RecoverReply
		for _, m := range set {
			ts = timestamp.Max(ts, m.Time)
			for _, id := range m.Pred {
				pred.Add(id)
			}
			if m.Forced && forced == nil {
				forced = m
			}
		}
		var whitelist []command.ID
		hasWhitelist := false
		switch {
		case forced != nil:
			// A previous recovery already forced a predecessor set;
			// reuse it.
			whitelist = forced.Pred
			hasWhitelist = true
		case len(set) >= quorum.RecoveryMajority(r.n):
			// c̄ may have been a predecessor in a fast decision
			// unless ⌊CQ/2⌋+1 tuples omit it (that many tuples
			// intersect every fast quorum).
			maj := quorum.RecoveryMajority(r.n)
			whitelist = make([]command.ID, 0, len(pred))
			for id := range pred {
				omitted := 0
				for _, m := range set {
					if !containsID(m.Pred, id) {
						omitted++
					}
				}
				if omitted < maj {
					whitelist = append(whitelist, id)
				}
			}
			command.SortIDs(whitelist)
			hasWhitelist = true
		}
		c := newCoord(set[0].Cmd)
		r.startFastProposal(c, ts, whitelist, hasWhitelist)
	}
}

// containsID reports membership in a sorted-or-not ID slice (slices here
// are small: predecessor sets of a single command).
func containsID(ids []command.ID, id command.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// RecoveryTimeout returns how long a recovery prepare may wait for its
// quorum before being retried at a higher ballot.
func (c Config) RecoveryTimeout() time.Duration {
	return 4 * c.SuspectTimeout
}
