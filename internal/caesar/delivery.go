package caesar

import (
	"log"
	"slices"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// breakLoop implements BREAKLOOP of Fig 3 (lines 9–15) for a freshly
// stable record: the final predecessor sets can contain cycles because
// "c̄ ∈ Pred(c)" does not imply "T̄ < T"; delivery order follows timestamps,
// so for every pair of stable conflicting commands the one with the higher
// timestamp keeps the other as predecessor and the lower one drops it.
//
// A predecessor set is shared with the message that carried it — the same
// Stable pointer reaches every in-process receiver — so a drop writes into
// a copy, taken on the first one.
func (r *Replica) breakLoop(rec *record) {
	pred, own := rec.pred, false
	for _, id := range rec.pred {
		other := r.hist.get(id)
		if other == nil || other.status != StatusStable {
			continue
		}
		if other.ts.Less(rec.ts) {
			// other delivers first; it must not wait for rec.
			if command.ContainsID(other.pred, rec.id()) {
				other.pred = command.RemoveID(slices.Clone(other.pred), rec.id())
				if !other.delivered && other.waitingOn == rec.id() {
					other.waitingOn = command.ID{}
					r.tryDeliver(other)
				}
			}
		} else {
			// other has the higher timestamp: rec delivers first.
			if !own {
				pred, own = slices.Clone(pred), true
			}
			pred = command.RemoveID(pred, id)
		}
	}
	rec.pred = pred
}

// tryDeliver delivers rec if every remaining predecessor has been decided
// (DELIVERABLE, Fig 3 lines 16–17), otherwise parks it on one missing
// predecessor. Delivery cascades iteratively through dependents.
func (r *Replica) tryDeliver(rec *record) {
	if !r.deliverable(rec) {
		return
	}
	work := []*record{rec}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if !r.deliverable(cur) {
			continue
		}
		r.deliverNow(cur)
		// Wake the records parked on cur.
		deps := cur.parked
		cur.parked = nil
		for _, d := range deps {
			if d.waitingOn == cur.id() {
				d.waitingOn = command.ID{}
			}
			if !d.delivered {
				work = append(work, d)
			}
		}
	}
}

// deliverable checks rec's predecessors, parking it on the first
// undelivered one in ID order — on its record, which is created by name if
// no message has brought that command yet. It returns true when rec can
// execute now.
func (r *Replica) deliverable(rec *record) bool {
	if rec.delivered || rec.status != StatusStable {
		return false
	}
	if !rec.waitingOn.IsZero() {
		if !r.delivered.Has(rec.waitingOn) {
			return false // still parked
		}
		rec.waitingOn = command.ID{}
	}
	for _, id := range rec.pred {
		if !r.delivered.Has(id) {
			rec.waitingOn = id
			on := r.hist.ensure(command.Command{ID: id})
			on.parked = append(on.parked, rec)
			return false
		}
	}
	return true
}

// deliverNow executes one command and completes client bookkeeping. The
// applier chain receives the decided timestamp (the cross-shard commit
// table merges per-group stable timestamps through ApplyAt). A chain that
// ends in a synchronous layer (protocol.Sync) is applied here, on the
// event loop. Any other may postpone the execution past the delivery
// point: it is handed a delivery from the replica's chunk as the
// command's completion, and the client callback fires when the chain
// completes it, from whatever goroutine does so — all replica-side
// bookkeeping is finished here, inside the event loop, before the chain
// is invoked.
// Either way the client-ack bookkeeping (noteClientAck, slow-command
// report included) runs before done: a waiter woken by done must find the
// report and the ack event already there.
func (r *Replica) deliverNow(rec *record) {
	// A seeded delivered set (crash recovery) can already contain this
	// command: it was applied — and logged — before the crash, and a
	// leader re-sent its decision. Finish the delivery bookkeeping (ack,
	// wake dependents) but skip the execution, keeping application
	// exactly-once across the restart.
	already := !r.delivered.Add(rec.id())
	rec.delivered = true
	rec.deliveredAt = r.now
	r.cfg.Trace.Record(r.self, trace.KindDeliver, rec.id(), rec.ts)

	id := rec.id()
	if already {
		rec.applied = true // replayed from the durable log pre-crash
		r.releaseReads(rec)
		r.queueAck(id)
		return
	}
	r.met.Executed.Inc()
	var proposedAt time.Time
	var done protocol.DoneFunc
	if c := rec.coord; c != nil {
		now := r.now
		proposedAt = c.proposedAt
		done, c.done = c.done, nil
		// The command's ID rides along as the latency histogram's
		// exemplar: a /statusz p99 spike then names a command an
		// operator can hand straight to /tracez / caesar-trace. The ID is
		// rendered only for a sample that becomes the exemplar.
		r.met.ObserveLatencyRef(now.Sub(c.proposedAt), id.String)
		if !c.stableAt.IsZero() {
			r.met.DeliverPhase.Add(now.Sub(c.stableAt))
		}
	}

	// The GC ack is queued only after the applier completes: an acked
	// command may be purged cluster-wide, so on a durable node it must
	// already be in the write-ahead log (which the applier chain writes)
	// — acking a delivery whose apply is still deferred (a rebalance
	// gate queueing it behind a handoff) could purge a command that a
	// crash then erases from every replay path.
	if r.appAt == nil {
		// rec is only read and written inside the event loop: the
		// completion posts it back, and carries its own copies of what it
		// reads.
		d := r.deliveries.Next()
		*d = delivery{r: r, rec: rec, id: id, ts: rec.ts, proposedAt: proposedAt, done: done}
		r.app.ApplyDeferred(rec.cmd, rec.ts, d)
		return
	}
	value := r.appAt.ApplyAt(rec.cmd, rec.ts)
	rec.applied = true
	r.releaseReads(rec)
	r.queueAck(id)
	if done != nil {
		r.noteClientAck(id, rec.ts, proposedAt, r.now)
		done(protocol.Result{Value: value})
	}
}

// delivery is one command handed to a deferred chain: what its completion
// needs once the chain reports, from whatever goroutine. Deliveries are
// slots of the replica's chunk (event-loop state), handed out in delivery
// order and completed in about that order, so a chunk is freed soon after
// its last slot completes. A slot is never reused: the loop never touches
// one after ApplyDeferred, and Complete, its only user from then on, drops
// the record and the callback it points at, so a completed slot pins
// neither while its chunk lives on.
type delivery struct {
	r          *Replica
	rec        *record
	id         command.ID
	ts         timestamp.Timestamp
	proposedAt time.Time
	done       protocol.DoneFunc // the client's callback, nil on a replica that did not lead the command
}

// Complete implements protocol.Completion. It may run on any goroutine —
// including the event loop itself (the gate's pass path completes
// synchronously), where a blocking Post on a full inbox would deadlock the
// loop against itself. TryPost never blocks; when it fails (full inbox),
// the ack is re-posted from a fresh goroutine, where blocking is safe —
// losing it would leave the record unapplied forever, parking every read
// fence on its keys and withholding its GC ack (a shutdown race just drops
// it: Post fails on a stopped loop).
//
// A chain that refused the command (res.Err: the write-ahead log is closed
// or its disk failed) neither logged nor applied it, so there is no ack: a
// GC-acked command may be purged cluster-wide, and this one is on no
// replay path of this node. The record stays unapplied and the client is
// told.
func (d *delivery) Complete(res protocol.Result) {
	r, rec, done := d.r, d.rec, d.done
	d.rec, d.done = nil, nil
	if res.Err == nil && !r.TryPost(evAck{rec: rec}) {
		go r.Post(evAck{rec: rec})
	}
	if done != nil {
		// Stamp from the runtime's (injected) clock — r.now is loop-owned
		// state, the completion is not: under the fake-clock harness a
		// wall-clock stamp here is compared against proposedAt instants
		// nothing else advances, inventing (or hiding) slow-command
		// latency.
		r.noteClientAck(d.id, d.ts, d.proposedAt, r.Now())
		done(res)
	}
}

// noteClientAck records the client-visible acknowledgement of a locally
// submitted command, immediately before its callback fires, and, when
// its submit→ack latency exceeds SlowThreshold, dumps the command's
// traced history through the slow-command log. Called from the event loop on the synchronous apply
// path and from whatever goroutine completes a deferred apply, so it only
// touches concurrency-safe state.
func (r *Replica) noteClientAck(id command.ID, ts timestamp.Timestamp, proposedAt, now time.Time) {
	r.unackedMu.Lock()
	delete(r.unacked, id)
	r.unackedMu.Unlock()
	r.cfg.Trace.Record(r.self, trace.KindAck, id, ts)
	thr := r.cfg.SlowThreshold
	if thr <= 0 || proposedAt.IsZero() {
		return
	}
	elapsed := now.Sub(proposedAt)
	if elapsed <= thr {
		return
	}
	logf := r.cfg.SlowLog
	if logf == nil {
		logf = log.Printf
	}
	if hist := r.cfg.Trace.CommandHistory(id); len(hist) > 0 {
		logf("caesar: slow command %v took %v (threshold %v)\n%s", id, elapsed, thr, trace.Format(hist))
	} else {
		logf("caesar: slow command %v took %v (threshold %v)", id, elapsed, thr)
	}
}

// onAck marks a deferred apply complete, wakes the read fences parked on
// it and queues its GC ack.
func (r *Replica) onAck(rec *record) {
	rec.applied = true
	r.releaseReads(rec)
	r.queueAck(rec.id())
}

// queueAck adds one delivered-and-applied command to the GC ack batch of
// its leader (an ID naming no node of this cluster has nobody to tell).
func (r *Replica) queueAck(id command.ID) {
	if leader := uint(id.Node); r.cfg.GCInterval > 0 && leader < uint(len(r.ackPending)) {
		r.ackPending[leader] = append(r.ackPending[leader], id)
	}
}
