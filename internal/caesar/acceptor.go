package caesar

import (
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// waiter is a proposal deferred by the wait condition of §IV-A: the
// acceptor received command cmd at timestamp ts while a conflicting command
// with a higher timestamp that does not list cmd as a predecessor was still
// pending, so the reply is withheld until every such blocker reaches the
// accepted or stable status (or disappears).
type waiter struct {
	cmd    command.Command
	ts     timestamp.Timestamp
	pred   []command.ID // predecessor set computed at reception (Fig 4, P13)
	ballot uint32
	slow   bool // answering a SlowPropose rather than a FastPropose
	from   timestamp.NodeID
	start  time.Time
	// key is the blocking key the park was attributed to; the eventual
	// wait duration is charged to the same key.
	key string
}

// blockState classifies the conflicting commands above a proposal's
// timestamp, implementing the tests of WAIT (Fig 3, lines 4–8).
type blockState struct {
	// blocked: some conflicting record with a higher timestamp, not
	// listing the command as predecessor, is still short of
	// accepted/stable — the command must wait.
	blocked bool
	// nack: some conflicting record with a higher timestamp, not
	// listing the command as predecessor, is already accepted/stable —
	// the timestamp must be rejected.
	nack bool
	// blockKey / nackKey name the shared key of the first blocker of
	// each class — the contention profile's attribution target.
	blockKey string
	nackKey  string
}

// offendingKey names the key a conflict is attributed to: the first key
// the two commands share, or — when the blocker carries no keys (a
// fence orders against everything) — the proposal's own first key.
func offendingKey(cmd, other command.Command) string {
	ck, ok := cmd.Keys(), other.Keys()
	for _, k := range ok {
		for _, c := range ck {
			if k == c {
				return k
			}
		}
	}
	if len(ck) > 0 {
		return ck[0]
	}
	if len(ok) > 0 {
		return ok[0]
	}
	return ""
}

// evalBlocking scans the conflict index above ts and classifies blockers.
// With a contention sketch attached it also names the offending key of
// the first blocker of each class, so the verdict can be attributed.
func (r *Replica) evalBlocking(cmd command.Command, ts timestamp.Timestamp) blockState {
	var st blockState
	attr := r.ctd != nil
	if r.hist.fencedAbove(cmd, ts) {
		// A purged (hence globally delivered) conflicting command had
		// a higher timestamp: this proposal must be rejected. The
		// conflicting record is gone, so the rejection is charged to
		// the proposal's own key.
		st.nack = true
		if attr {
			if ks := cmd.Keys(); len(ks) > 0 {
				st.nackKey = ks[0]
			}
		}
	}
	r.hist.conflicts(cmd, ts, above, func(other *record) bool {
		if command.ContainsID(other.pred, cmd.ID) {
			return true
		}
		switch other.status {
		case StatusAccepted, StatusStable:
			st.nack = true
			if attr && st.nackKey == "" {
				st.nackKey = offendingKey(cmd, other.cmd)
			}
		case StatusFastPending, StatusSlowPending, StatusRejected:
			st.blocked = true
			if attr && st.blockKey == "" {
				st.blockKey = offendingKey(cmd, other.cmd)
			}
		}
		// Keep scanning until both facts are known (blocked wins, but
		// nack matters once blockers resolve).
		return !(st.blocked && st.nack)
	})
	return st
}

// onFastPropose handles the acceptor side of the fast proposal phase
// (Fig 4, lines P11–P20).
func (r *Replica) onFastPropose(from timestamp.NodeID, m *FastPropose) {
	rec := r.hist.ensure(m.Cmd)
	if rec.promised > m.Ballot {
		return
	}
	rec.promised = m.Ballot
	r.clock.Observe(m.Time)
	r.touchKeys(m.Cmd)
	if rec.status == StatusStable || rec.delivered {
		r.echoStable(from, rec)
		return
	}

	pred := r.hist.computePredecessors(m.Cmd, m.Time, m.Whitelist, m.HasWhitelist)
	r.hist.write(rec, StatusFastPending, m.Time, pred, m.Ballot, m.HasWhitelist)
	r.answerProposal(from, rec, m.Time, pred, m.Ballot, false)
}

// onSlowPropose handles the acceptor side of the slow proposal phase
// (Fig 4, lines P31–P39). Unlike a retry, a slow proposal can still be
// rejected; unlike a fast proposal, the predecessor set is the one the
// leader gathered, not a locally computed one.
func (r *Replica) onSlowPropose(from timestamp.NodeID, m *SlowPropose) {
	rec := r.hist.ensure(m.Cmd)
	if rec.promised > m.Ballot {
		return
	}
	rec.promised = m.Ballot
	r.clock.Observe(m.Time)
	r.touchKeys(m.Cmd)
	if rec.status == StatusStable || rec.delivered {
		r.echoStable(from, rec)
		return
	}

	r.hist.write(rec, StatusSlowPending, m.Time, m.Pred, m.Ballot, false)
	r.answerProposal(from, rec, m.Time, m.Pred, m.Ballot, true)
	// A slow-pending mark can unblock nothing, but the timestamp move
	// (if the record existed at another timestamp) can change waiter
	// verdicts.
	r.resolveWaiters()
}

// answerProposal applies the wait condition and replies OK, replies NACK,
// or parks the proposal as a waiter.
func (r *Replica) answerProposal(from timestamp.NodeID, rec *record, ts timestamp.Timestamp, pred []command.ID, ballot uint32, slow bool) {
	st := r.evalBlocking(rec.cmd, ts)
	switch {
	case st.blocked && !r.cfg.DisableWait:
		r.cfg.Trace.Record(r.self, trace.KindWaitStart, rec.cmd.ID, ts)
		r.ctd.Blocked(st.blockKey)
		r.waiters = append(r.waiters, &waiter{
			cmd:    rec.cmd,
			ts:     ts,
			pred:   pred,
			ballot: ballot,
			slow:   slow,
			from:   from,
			start:  r.now,
			key:    st.blockKey,
		})
	case st.nack || st.blocked: // blocked && DisableWait ⇒ reject (ablation)
		offender := st.nackKey
		if offender == "" {
			offender = st.blockKey
		}
		r.rejectProposal(from, rec, ballot, slow, offender)
	default:
		r.cfg.Trace.Record(r.self, trace.KindFastOK, rec.cmd.ID, ts)
		r.reply(from, rec.cmd.ID, ts, pred, ballot, slow, false)
	}
}

// rejectProposal implements the NACK path (Fig 4, lines P16–P19): suggest
// the current clock value as a new timestamp, recompute the predecessors
// for it and mark the command rejected at the suggestion. offender is
// the conflicting key the rejection is attributed to in the contention
// profile (may be empty when unknown).
func (r *Replica) rejectProposal(from timestamp.NodeID, rec *record, ballot uint32, slow bool, offender string) {
	r.ctd.Nack(offender)
	suggestion := r.clock.Next()
	pred := r.hist.predecessorsBelow(rec.cmd, suggestion)
	r.hist.write(rec, StatusRejected, suggestion, pred, ballot, rec.forced)
	r.cfg.Trace.Record(r.self, trace.KindNack, rec.cmd.ID, suggestion)
	r.reply(from, rec.cmd.ID, suggestion, pred, ballot, slow, true)
}

// reply answers a proposal: nack false confirms the proposed timestamp ts,
// true suggests ts instead.
func (r *Replica) reply(from timestamp.NodeID, id command.ID, ts timestamp.Timestamp, pred []command.ID, ballot uint32, slow, nack bool) {
	if slow {
		r.Send(from, &SlowProposeReply{Ballot: ballot, CmdID: id, Time: ts, Pred: pred, NACK: nack})
	} else {
		r.Send(from, &FastProposeReply{Ballot: ballot, CmdID: id, Time: ts, Pred: pred, NACK: nack})
	}
}

// onRetry handles the acceptor side of the retry phase (Fig 4, lines
// R5–R8). A retry is never rejected: the acceptor marks the command
// accepted at the new timestamp and returns the extra predecessors it knows
// about for that timestamp.
func (r *Replica) onRetry(from timestamp.NodeID, m *Retry) {
	rec := r.hist.ensure(m.Cmd)
	if rec.promised > m.Ballot {
		return
	}
	rec.promised = m.Ballot
	r.clock.Observe(m.Time)
	if rec.status == StatusStable || rec.delivered {
		r.echoStable(from, rec)
		return
	}

	pred := command.UnionIDs(m.Pred, r.hist.predecessorsBelow(m.Cmd, m.Time))
	r.hist.write(rec, StatusAccepted, m.Time, pred, m.Ballot, false)
	r.Send(from, &RetryReply{Ballot: m.Ballot, CmdID: m.Cmd.ID, Time: m.Time, Pred: pred})
	// accepted unblocks waiters (Fig 3, line 5).
	r.resolveWaiters()
}

// onStable handles the acceptor side of the stable phase (Fig 4, lines
// S2–S7): record the final timestamp and predecessors, break predecessor
// loops and deliver once every predecessor is decided.
//
// A Stable whose command is an ID alone (Op 0) names a command this
// replica voted for. If it holds no payload for it — it restarted since
// the vote — the message is dropped unacknowledged, and the leader's
// retransmission, which carries the command whole, teaches it the
// decision.
func (r *Replica) onStable(from timestamp.NodeID, m *Stable) {
	id := m.Cmd.ID
	var rec *record
	if m.Cmd.Op == 0 {
		if rec = r.hist.get(id); rec == nil || rec.cmd.Op == 0 {
			return
		}
	} else {
		rec = r.hist.ensure(m.Cmd)
	}
	// A decision is final, so it is learned whatever ballot this replica
	// has promised since: a recoverer's own loop-backed Recover raises
	// the promise before a survivor's echoStable answers at the record's
	// original ballot, and dropping that Stable would leave the decision
	// unlearnable here. The promise only ever moves up.
	rec.promised = max(rec.promised, m.Ballot)
	r.clock.Observe(m.Time)
	if rec.status == StatusStable || rec.delivered {
		if rec.applied {
			// A duplicate Stable for a command we already applied means
			// the leader is missing our ack (it was lost, or sent before
			// a crash); re-ack so it can purge. Keyed on applied, not
			// delivered: a delivery whose apply is still deferred behind
			// a handoff is not yet in the durable log, and acking it
			// could let a purge erase it from every replay path.
			r.queueAck(id)
		}
		return
	}
	r.hist.write(rec, StatusStable, m.Time, m.Pred, m.Ballot, false)
	r.met.Decided.Inc()
	r.cfg.Trace.Record(r.self, trace.KindStable, id, m.Time)

	// Leader-side bookkeeping: if we coordinate this command (original
	// leader or recoverer) the decision is now fixed.
	if c := rec.coord; c != nil && c.phase != phaseStable {
		c.phase = phaseStable
		c.stableAt = r.now
	}

	r.resolveWaiters()
	r.breakLoop(rec)
	r.tryDeliver(rec)
}

// echoStable forwards an already-taken decision to a leader that is (re-)
// proposing the command, typically during recovery races. The decision is
// idempotent, so replaying it is always safe.
func (r *Replica) echoStable(to timestamp.NodeID, rec *record) {
	r.Send(to, &Stable{
		Ballot: rec.ballot,
		Cmd:    rec.cmd,
		Time:   rec.ts,
		Pred:   rec.pred,
	})
}

// resolveWaiters re-evaluates every parked proposal; those whose blockers
// are gone are answered (OK or NACK), the rest keep waiting. Waiters whose
// underlying record moved on (higher ballot, new phase, purge) are dropped:
// their leader has already progressed by other means.
func (r *Replica) resolveWaiters() {
	if len(r.waiters) == 0 {
		return
	}
	kept := r.waiters[:0]
	for _, w := range r.waiters {
		if r.stillWaiting(w) {
			kept = append(kept, w)
		}
	}
	// Zero the tail so dropped waiters do not leak.
	for i := len(kept); i < len(r.waiters); i++ {
		r.waiters[i] = nil
	}
	r.waiters = kept
}

// stillWaiting decides one waiter's fate: false once it has been answered
// or dropped.
func (r *Replica) stillWaiting(w *waiter) bool {
	rec := r.hist.get(w.cmd.ID)
	if rec == nil || rec.delivered || rec.ballot != w.ballot || rec.ts != w.ts {
		return false
	}
	wantStatus := StatusFastPending
	if w.slow {
		wantStatus = StatusSlowPending
	}
	if rec.status != wantStatus {
		return false
	}
	st := r.evalBlocking(w.cmd, w.ts)
	if st.blocked {
		return true
	}
	r.met.WaitCondition.Add(r.now.Sub(w.start))
	r.ctd.WaitDone(w.key, r.now.Sub(w.start))
	r.cfg.Trace.Record(r.self, trace.KindWaitEnd, w.cmd.ID, w.ts)
	if st.nack {
		r.rejectProposal(w.from, rec, w.ballot, w.slow, st.nackKey)
	} else {
		r.reply(w.from, w.cmd.ID, w.ts, w.pred, w.ballot, w.slow, false)
	}
	return false
}

// touchKeys records a proposed command's keys in the contention sketch —
// the touch baseline the attribution counters are read against. Guarded
// so the no-sketch configuration pays nothing (Keys allocates).
func (r *Replica) touchKeys(cmd command.Command) {
	if r.ctd == nil {
		return
	}
	for _, k := range cmd.Keys() {
		r.ctd.Touch(k)
	}
}
