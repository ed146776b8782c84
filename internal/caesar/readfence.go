package caesar

// Local-read support (internal/reads): a read is stamped with this
// replica's logical clock and registered against the delivery frontier —
// it may be served from the local store the moment every conflicting
// command that could still order below its timestamp has been applied
// here. That is the paper's §IV-A wait condition turned around and applied
// to reads: instead of an acceptor holding a *proposal* until the lower
// timestamps settle, the replica holds a *read* until the lower timestamps
// are executed, after which the local state at the read's timestamp is a
// real point of the group's serialization order. No proposal, no quorum
// round-trip, no log record.
//
// The fence covers every conflicting command this replica has seen
// (pre-stable, stable-undelivered, or delivered-but-deferred behind a
// rebalance handoff). A command it has not yet heard of at registration
// time is not waited for: the read then serializes before that command,
// which is consistent because the command's acknowledgement cannot have
// preceded the read's completion at this replica. See the package
// documentation of internal/reads for the precise guarantee.

import (
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// readWaiter is one parked read fence: remaining counts the conflicting
// commands still unapplied; done fires (from the event loop — it must not
// block) when the count reaches zero. parkedAt lets the full park
// duration be attributed to the last blocker's key in the contention
// profile.
type readWaiter struct {
	remaining int
	done      func(error)
	parkedAt  time.Time
}

// evReadFence registers a read point inside the event loop.
type evReadFence struct {
	keys []string
	ts   timestamp.Timestamp
	done func(error)
}

// ReadStamp issues a fresh read timestamp from the replica's logical
// clock. The clock has observed every timestamp this replica proposed,
// accepted or delivered, so the stamp orders strictly after everything
// already applied here — including the caller's own completed writes
// through this node (read-your-writes). Safe for concurrent use; called
// outside the event loop.
func (r *Replica) ReadStamp() timestamp.Timestamp {
	return r.clock.Next()
}

// ObserveStamp raises the logical clock to at least ts, so every later
// ReadStamp orders above it: the read engine's answer to store versions
// stamped above this group's clock (a cross-shard transaction executes at
// the merged timestamp of all its groups). Safe for concurrent use.
func (r *Replica) ObserveStamp(ts timestamp.Timestamp) {
	r.clock.Observe(ts)
}

// ReadFence parks done until every command conflicting with keys that this
// replica has seen and that could still order below ts has been applied to
// the local store. done is invoked from the event loop (or inline on a
// stopped replica, with protocol.ErrStopped) and must not block.
func (r *Replica) ReadFence(keys []string, ts timestamp.Timestamp, done func(error)) {
	if len(keys) == 0 {
		done(nil)
		return
	}
	if !r.Post(evReadFence{keys: keys, ts: ts, done: done}) {
		done(protocol.ErrStopped)
	}
}

// onReadFence computes the read's blocking set: every indexed conflicting
// record below ts not yet applied. Timestamps only move up (retries raise
// them, never lower them), so a record currently at or above ts can never
// finalize below it and is not waited for; a record below ts that later
// retries above it is waited for anyway — a small latency cost, never a
// correctness one. The waiter is allocated at the first blocker: a read
// that nothing blocks costs none.
func (r *Replica) onReadFence(e evReadFence) {
	phantom := command.Command{Op: command.OpGet, Key: e.keys[0]}
	if len(e.keys) > 1 {
		phantom.ExtraKeys = e.keys[1:]
	}
	var w *readWaiter
	r.hist.conflicts(phantom, e.ts, below, func(rec *record) bool {
		if rec.applied {
			return true
		}
		id := rec.id()
		if w == nil {
			w = &readWaiter{done: e.done}
		}
		w.remaining++
		rec.reads = append(rec.reads, w)
		if r.ctd != nil {
			// Attribute the park to the blocking command's key shared
			// with the read.
			r.ctd.Park(offendingKey(phantom, rec.cmd))
		}
		// The event carries the blocking command's ID and the read's
		// timestamp: the command's history then shows which reads it held.
		r.cfg.Trace.Record(r.self, trace.KindReadPark, id, e.ts)
		return true
	})
	if w == nil {
		e.done(nil)
		return
	}
	w.parkedAt = r.now
	r.met.ReadFenceParks.Inc()
}

// releaseReads wakes the read fences parked on a command that has just
// been applied (or recognized as applied by a pre-crash incarnation).
// Called from the event loop.
func (r *Replica) releaseReads(rec *record) {
	ws := rec.reads
	if len(ws) == 0 {
		return
	}
	rec.reads = nil
	r.cfg.Trace.Record(r.self, trace.KindReadRelease, rec.id(), timestamp.Zero)
	// The command that fully unparks a fence is the one that held it
	// last: charge the whole park duration to its key.
	var lastKey string
	if r.ctd != nil {
		if ks := rec.cmd.Keys(); len(ks) > 0 {
			lastKey = ks[0]
		}
	}
	for _, w := range ws {
		if w.remaining--; w.remaining == 0 {
			if r.ctd != nil && !w.parkedAt.IsZero() {
				r.ctd.ParkDone(lastKey, r.now.Sub(w.parkedAt))
			}
			w.done(nil)
		}
	}
}
