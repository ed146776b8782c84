package caesar

import (
	"math/bits"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// Garbage collection (§V-B: "when a command is stable on all nodes, the
// information about c can be safely garbage collected"). Every replica
// periodically acknowledges the commands it delivered to their leaders;
// a leader that has collected an acknowledgement from every node
// broadcasts a purge. Purged records leave the history and conflict index;
// the deliveredSet keeps the delivery fact forever (cheaply), and a
// per-key timestamp fence keeps rejecting proposals that would order below
// an already-purged delivery.

// flushGC sends the batched delivery acks, leader by leader in node order,
// and any pending purges.
func (r *Replica) flushGC() {
	for leader, ids := range r.ackPending {
		if len(ids) == 0 {
			continue
		}
		r.Send(timestamp.NodeID(leader), &StableAckBatch{IDs: ids})
		r.ackPending[leader] = nil
	}
	if len(r.purgePending) > 0 {
		r.Broadcast(&PurgeBatch{IDs: r.purgePending})
		r.purgePending = nil
	}
}

// onStableAckBatch records acks as the commands' leader; fully
// acknowledged commands are queued for purging, once. The sender is
// remembered (not just counted) so retransmitStables knows who still owes
// one. An ack for a command this replica holds no record of — purged
// already, or led by a previous incarnation and not relearned yet — is
// dropped: whoever re-sends the decision makes every replica ack again.
func (r *Replica) onStableAckBatch(from timestamp.NodeID, m *StableAckBatch) {
	bit := uint64(1) << uint(from)
	for _, id := range m.IDs {
		rec := r.hist.get(id)
		if id.Node != r.self || rec == nil || rec.acked&bit != 0 {
			continue
		}
		rec.acked |= bit
		if bits.OnesCount64(rec.acked) == r.n {
			r.purgePending = append(r.purgePending, id)
		}
	}
}

// retransmitStables re-sends delivered Stable decisions whose purge is
// overdue. In steady state acks arrive within a GC interval, purges
// follow, and this loop sends nothing; it exists for replicas that
// missed the original broadcast — crashed and restarted from their
// durable log, or partitioned — which relearn the decisions here,
// acknowledge (their seeded delivered set suppresses re-execution), and
// let the leader purge.
//
// Two cadences:
//   - Leader precision: for commands this node leads, it knows exactly
//     which replicas still owe an ack and re-sends to just those after
//     RetransmitAfter.
//   - Survivor fallback: a delivered record led by SOMEONE ELSE that is
//     still unpurged after 4× that (the leader should long have fixed
//     it) is re-broadcast by everyone holding it. This is what lets a
//     node relearn the commands its own previous incarnation led: their
//     leader state died with it, so only the survivors can re-send —
//     and the acks the re-broadcast triggers flow to the restarted
//     leader, which resumes purge duty for its predecessor's commands.
func (r *Replica) retransmitStables(now time.Time) {
	resent := 0
	for rec := r.hist.first; rec != nil; rec = rec.next {
		if !rec.delivered || rec.status != StatusStable {
			continue
		}
		if c := rec.coord; c != nil {
			if c.phase != phaseStable {
				continue
			}
			base := c.stableAt
			if c.lastResend.After(base) {
				base = c.lastResend
			}
			if now.Sub(base) < r.cfg.RetransmitAfter {
				continue
			}
			c.lastResend = now
			rec.resentAt = now
			for _, p := range r.peers {
				if p == r.self {
					continue
				}
				if r.fd != nil && r.fd.Suspected(p) {
					// A currently dead peer cannot ack; re-sending to it is
					// pure waste, and a permanently dead one would turn this
					// loop into unbounded background traffic. It is caught
					// up on the cycle after it heartbeats again.
					continue
				}
				if rec.acked&(1<<uint(p)) == 0 {
					r.echoStable(p, rec)
					resent++
				}
			}
			continue
		}
		// Fallback cadence backs off with record age: a record whose
		// purge is missing because some replica is gone for good is
		// re-broadcast ever more rarely instead of hammering the cluster
		// forever, while a freshly relevant one (its leader just
		// restarted) goes out within a few retransmit windows.
		interval := 4*r.cfg.RetransmitAfter + now.Sub(rec.deliveredAt)/2
		base := rec.deliveredAt
		if rec.resentAt.After(base) {
			base = rec.resentAt
		}
		if now.Sub(base) < interval {
			continue
		}
		rec.resentAt = now
		resent++
		r.Broadcast(&Stable{
			Ballot: rec.ballot,
			Cmd:    rec.cmd,
			Time:   rec.ts,
			Pred:   rec.pred,
		})
	}
	if resent > 0 {
		r.cfg.Flight.Record(flight.KindRetransmit, r.cfg.FlightGroup, command.ID{},
			"re-sent %d stable decision(s) still awaiting delivery acks", resent)
	}
}

// onPurgeBatch drops fully delivered records. The purge fence (see
// history.purge) preserves the ordering information the records carried.
func (r *Replica) onPurgeBatch(_ timestamp.NodeID, m *PurgeBatch) {
	purged := false
	for _, id := range m.IDs {
		rec := r.hist.get(id)
		if rec == nil || !rec.delivered {
			// A purge for a command we have not delivered cannot
			// happen (the leader waits for all N acks); if state was
			// lost, ignoring is the safe side.
			continue
		}
		r.cfg.Trace.Record(r.self, trace.KindPurge, id, rec.ts)
		r.hist.purge(rec)
		purged = true
	}
	if purged {
		// Removing records can only flip waiter verdicts through the
		// fence, but re-evaluating keeps the queue tight.
		r.resolveWaiters()
	}
}

// history.purge removes the record and raises the per-key fence to its
// timestamp: the command was delivered on every node at rec.ts, so any
// future proposal of a conflicting command at a lower timestamp must be
// rejected even though the record is gone — otherwise it could be ordered
// "before" a command the whole cluster already executed.
func (h *history) purge(rec *record) {
	for _, k := range rec.cmd.Keys() {
		if cur, ok := h.fence[k]; !ok || cur.Less(rec.ts) {
			h.fence[k] = rec.ts
		}
	}
	if rec.cmd.Op == command.OpFence && h.purgedBarrier.Less(rec.ts) {
		// The barrier conflicted with every command; keep rejecting
		// proposals below it after the record is gone.
		h.purgedBarrier = rec.ts
	}
	if h.purgedMax.Less(rec.ts) {
		h.purgedMax = rec.ts
	}
	h.remove(rec)
}

// fencedAbove reports whether a proposal of cmd at ts falls below the purge
// fence of any of its keys — or, for any command, below a purged barrier
// (and, for a barrier proposal, below any purged record at all) — which
// forces a rejection.
func (h *history) fencedAbove(cmd command.Command, ts timestamp.Timestamp) bool {
	if cmd.Op == command.OpNoop {
		return false
	}
	if ts.Less(h.purgedBarrier) {
		return true
	}
	if cmd.Op == command.OpFence && ts.Less(h.purgedMax) {
		return true
	}
	for _, k := range cmd.Keys() {
		if f, ok := h.fence[k]; ok && ts.Less(f) {
			return true
		}
	}
	return false
}
