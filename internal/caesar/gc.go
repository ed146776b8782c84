package caesar

import (
	"maps"
	"math/bits"
	"slices"
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
// the deliveredSet keeps the delivery fact forever (cheaply), and the purge
// fence keeps rejecting proposals that would order below an already-purged
// delivery.
//
// The fence forgets what no proposal can reach. purge raises the fence of
// each of the record's keys, which lives in the key's conflict-list entry
// (keyList.fence). Below a floor timestamp every proposal is rejected,
// whatever its keys; on every GC tick the floor rises to the cluster's
// purge horizon (history.raiseFloor), and an entry whose fence the floor
// covers and whose list is empty leaves the index. An entry the floor
// covers answers every query exactly as the floor does, so nothing needs
// to tell older fences from newer ones.
//
// A NACK is not free. Recovery reads a rejected tuple as proof that the
// command was not decided at its timestamp (Fig 5, case iii), and a leader
// re-proposing at the same timestamp (case v) moves to a retry on one
// NACK. So the floor may reject a proposal of c at ts only if c is never
// decided at ts — the property a purged conflict above ts gives the per-key
// entries. A floor checked against this replica's own records alone does
// not have it: a command decided fast without this replica, whose leader
// crashed before its Stables left, is known only elsewhere.
//
// The horizon is built from the heartbeats (onHeartbeat). A replica's Low
// is the lowest of its clock's next timestamp and the timestamp of every
// record it still indexes, delivered or not: a record leaves the index
// only when it is purged, that is delivered everywhere. Its Seen is the
// lowest Low it knows of, its own and the last one every other replica
// heartbeated (zero for a replica not heard from yet). The horizon is the
// lowest Seen known, this replica's own taken at the tick.
//
//   - Safety. Suppose c is decided at ts and not delivered here. Let G be
//     the replica whose clock issued ts (c's leader, or a recoverer that
//     chose a fresh timestamp). Until c is purged, which needs this
//     replica's delivery, every Low G reports is at most ts: before G
//     issued ts its clock was not past it, and after, its record of c sits
//     at ts, where c is decided. Every Seen that counts G's report is then
//     at most ts, and so is every horizon. If G crashed and restarted, its
//     new incarnation knows nothing of c. Take instead a replica h that got
//     c at ts from G's old incarnation and holds it still. Until h got c,
//     its view of G was a report of the old incarnation; from then on, its
//     own Low is at most ts. So every Seen h reports is at most ts, and so
//     is every horizon. Either way the floor stays at or below ts while c
//     is undelivered here, and a floor NACK is never given to a command
//     decided at the rejected timestamp. The replicas that OK'd G's own
//     decision got c before G crashed. When a recoverer decided, h is a
//     replica whose tuple it re-proposed, and this needs a crashed
//     incarnation's messages to reach a replica before its successor's.
//   - Exactness. A fence is dropped only once the floor covers it, so
//     every query at or above the floor gets exactly the answer a fence
//     that never forgot would give.
//   - No fast-path cost. A fresh proposal's timestamp is at or above every
//     Low its leader reported before issuing it, and its own record keeps
//     every later Low at or below it, so no floor is above it. Nor is one
//     above a waiter or any other record this replica indexes: the floor
//     never passes this replica's own Low.
//   - What holds the floor. A replica not heard from (a crashed one, or
//     heartbeats disabled) keeps it where it is, and so does a record that
//     never gets purged; purges need every replica's ack anyway, so the
//     fence stops growing too. caesar_purge_fence_keys shows it.

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
		r.Broadcast(r.stable(rec.ballot, rec.cmd, rec.ts, rec.pred))
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

// history.purge removes the record and raises the fence on each of its
// keys to its timestamp: the command was delivered on every node at rec.ts,
// so any future proposal of a conflicting command at a lower timestamp must
// be rejected even though the record is gone — otherwise it could be
// ordered "before" a command the whole cluster already executed. A fence
// the floor covers is not needed: the floor rejects that proposal instead.
// The fence rises before remove unindexes the record, so the entry its list
// empties stays and is not made again.
func (h *history) purge(rec *record) {
	if h.floor.Less(rec.ts) {
		for _, k := range rec.cmd.Keys() {
			l := h.list(k)
			l.fence = timestamp.Max(l.fence, rec.ts)
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

// fencedAbove reports whether a proposal of cmd at ts must be rejected
// because of what was purged: it falls below the floor, below the fence on
// one of its keys, below a purged barrier, or — for a barrier proposal —
// below any purged record at all. A noop conflicts with nothing and is
// never fenced. At or above the floor the answer is the one a fence keeping
// every purged key forever would give; below it the answer is true, and
// the cluster-wide horizon the floor follows makes that a rejection the
// protocol may give (see the comment at the top of this file).
func (h *history) fencedAbove(cmd command.Command, ts timestamp.Timestamp) bool {
	if cmd.Op == command.OpNoop {
		return false
	}
	if ts.Less(h.floor) || ts.Less(h.purgedBarrier) {
		return true
	}
	if cmd.Op == command.OpFence && ts.Less(h.purgedMax) {
		return true
	}
	for _, k := range cmd.Keys() {
		if l := h.byKey[k]; l != nil && ts.Less(l.fence) {
			return true
		}
	}
	return false
}

// raiseFloor runs once per GC tick: the floor rises to horizon (it never
// falls), and every entry whose list is empty and whose fence the floor
// now covers leaves the index. The spare list keeps no more of the
// entries that left, its own included, than list made in the two
// intervals this raise ends (see history.spare). It returns the number of
// entries whose fence is still above the floor (caesar_purge_fence_keys).
func (h *history) raiseFloor(horizon timestamp.Timestamp) (fenced int) {
	h.floor = timestamp.Max(h.floor, horizon)
	bound := h.lastMade + h.made
	h.lastMade, h.made = h.made, 0
	//caesarlint:allow maprange -- deletes entries, keeps cleared ones as spares and counts them; nothing is sent, applied or traced from the order
	maps.DeleteFunc(h.byKey, func(_ string, l *keyList) bool {
		if h.floor.Less(l.fence) {
			fenced++
			return false
		}
		if len(l.recs) != 0 {
			return false
		}
		h.drop(l, bound)
		return true
	})
	if len(h.spare) > bound {
		clear(h.spare[bound:])
		h.spare = h.spare[:bound]
	}
	if cap(h.spare) >= shrinkFrom && 4*len(h.spare) < cap(h.spare) {
		// A backlog's raise grew the slice; what it keeps now fits a quarter.
		h.spare = slices.Clone(h.spare)
	}
	h.byKey = shrink(h.byKey, &h.keysPeak)
	return fenced
}

// low is the lowest of bound and the timestamp of every indexed record.
func (h *history) low(bound timestamp.Timestamp) timestamp.Timestamp {
	for rec := h.first; rec != nil; rec = rec.next {
		if rec.indexed && rec.ts.Less(bound) {
			bound = rec.ts
		}
	}
	return bound
}

// reportHorizon refreshes this replica's own Low and Seen (see the comment
// at the top of this file) and returns the horizon: the lowest Seen known.
func (r *Replica) reportHorizon() timestamp.Timestamp {
	r.lows[r.self] = r.hist.low(r.clock.Current())
	r.seens[r.self] = slices.MinFunc(r.lows, timestamp.Timestamp.Compare)
	return slices.MinFunc(r.seens, timestamp.Timestamp.Compare)
}

// heartbeat is the failure detector's heartbeat, carrying this replica's
// horizon report.
func (r *Replica) heartbeat() *Heartbeat {
	r.reportHorizon()
	return &Heartbeat{Low: r.lows[r.self], Seen: r.seens[r.self]}
}

// onHeartbeat keeps a replica's latest horizon report (its life was
// already observed in step).
func (r *Replica) onHeartbeat(from timestamp.NodeID, m *Heartbeat) {
	if uint(from) < uint(len(r.lows)) {
		r.lows[from], r.seens[from] = m.Low, m.Seen
	}
}
