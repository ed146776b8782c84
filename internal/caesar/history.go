package caesar

import (
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/rbtree"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// record is one tuple of the history H_i (§V-A): the current timestamp,
// predecessor set, status, ballot and forced flag of a command, plus
// delivery bookkeeping.
type record struct {
	cmd    command.Command
	ts     timestamp.Timestamp
	pred   command.IDSet
	status Status
	ballot uint32
	forced bool

	// delivered is set once the command has been handed to the applier;
	// applied once the applier completed it (a DeferringApplier may hold
	// the gap open across a rebalance handoff). GC acks key on applied:
	// on a durable node an acked command must already be in the
	// write-ahead log, which the applier chain writes. deliveredAt and
	// resentAt drive Stable retransmission for records whose purge is
	// overdue.
	delivered   bool
	applied     bool
	deliveredAt time.Time
	resentAt    time.Time
	// stuckSince is set by the stuck-record scan the first time it sees
	// the record pre-stable; a record still pre-stable a full
	// StuckTimeout later is recovered even if its leader looks alive
	// (it may be a restarted incarnation that lost the command).
	stuckSince time.Time
	// indexed tracks whether the record currently appears in the
	// conflict index (at timestamp ts).
	indexed bool
	// waitingOn is the predecessor this stable record is currently
	// parked on in the delivery pipeline (zero when none).
	waitingOn command.ID
}

func (r *record) id() command.ID { return r.cmd.ID }

// tsKey orders the conflict index: by timestamp, with the command ID as a
// defensive tie-break (the protocol never attaches one timestamp to two
// commands — every timestamp comes from a unique Clock.Next call — but the
// index must not corrupt if that invariant is ever violated).
type tsKey struct {
	ts timestamp.Timestamp
	id command.ID
}

func tsKeyLess(a, b tsKey) bool {
	if c := a.ts.Compare(b.ts); c != 0 {
		return c < 0
	}
	if a.id.Node != b.id.Node {
		return a.id.Node < b.id.Node
	}
	return a.id.Seq < b.id.Seq
}

// history is H_i plus the per-key conflict index: for every key, a
// red–black tree of the records touching that key ordered by timestamp
// (§VI: "conflicting commands are tracked using a Red-Black tree data
// structure ordered by their timestamp").
type history struct {
	recs  map[command.ID]*record
	byKey map[string]*rbtree.Tree[tsKey, *record]
	// barriers holds the indexed OpFence records. A fence conflicts with
	// every command, so it lives outside the per-key trees: ordinary
	// conflict scans consult this (usually empty) set as well, and a
	// fence's own scans walk the whole history instead of key trees —
	// resizes are rare, so the one-off O(history) pass is cheap.
	barriers map[command.ID]*record
	// fence holds, per key, the highest timestamp of a purged (globally
	// delivered) command on that key; see history.purge.
	fence map[string]timestamp.Timestamp
	// purgedBarrier is the highest timestamp of a purged fence: every
	// command conflicted with it, so proposals below it are rejected even
	// though the record is gone. purgedMax is the highest timestamp of
	// any purged record — the same guard for a future fence proposal,
	// which conflicts with everything that was ever delivered.
	purgedBarrier timestamp.Timestamp
	purgedMax     timestamp.Timestamp
}

func newHistory() *history {
	return &history{
		recs:     make(map[command.ID]*record),
		byKey:    make(map[string]*rbtree.Tree[tsKey, *record]),
		barriers: make(map[command.ID]*record),
		fence:    make(map[string]timestamp.Timestamp),
	}
}

// get returns the record for id, or nil.
func (h *history) get(id command.ID) *record {
	return h.recs[id]
}

// ensure returns the record for cmd, creating an empty (StatusNone,
// unindexed) one if absent.
func (h *history) ensure(cmd command.Command) *record {
	if rec, ok := h.recs[cmd.ID]; ok {
		return rec
	}
	rec := &record{cmd: cmd}
	h.recs[cmd.ID] = rec
	return rec
}

// setTimestamp moves the record to a new timestamp, repositioning it in the
// conflict index.
func (h *history) setTimestamp(rec *record, ts timestamp.Timestamp) {
	if rec.indexed && rec.ts == ts {
		return
	}
	h.unindex(rec)
	rec.ts = ts
	h.index(rec)
}

// index inserts the record into the conflict index at its current
// timestamp.
func (h *history) index(rec *record) {
	if rec.indexed {
		return
	}
	if rec.cmd.Op == command.OpFence {
		h.barriers[rec.id()] = rec
		rec.indexed = true
		return
	}
	key := tsKey{ts: rec.ts, id: rec.id()}
	for _, k := range rec.cmd.Keys() {
		tree, ok := h.byKey[k]
		if !ok {
			tree = rbtree.New[tsKey, *record](tsKeyLess)
			h.byKey[k] = tree
		}
		tree.Set(key, rec)
	}
	rec.indexed = true
}

// unindex removes the record from the conflict index.
func (h *history) unindex(rec *record) {
	if !rec.indexed {
		return
	}
	if rec.cmd.Op == command.OpFence {
		delete(h.barriers, rec.id())
		rec.indexed = false
		return
	}
	key := tsKey{ts: rec.ts, id: rec.id()}
	for _, k := range rec.cmd.Keys() {
		if tree, ok := h.byKey[k]; ok {
			tree.Delete(key)
			if tree.Len() == 0 {
				delete(h.byKey, k)
			}
		}
	}
	rec.indexed = false
}

// remove purges the record entirely (garbage collection).
func (h *history) remove(rec *record) {
	h.unindex(rec)
	delete(h.recs, rec.id())
}

// conflictsBelow calls fn for every indexed record conflicting with cmd
// whose timestamp is strictly below ts. A record touching several of cmd's
// keys is visited once per key; fn must tolerate duplicates (IDSet
// insertion does). A fence conflicts with everything, so a fence command
// scans the whole history, and every ordinary command checks the (usually
// empty) barrier set on top of its key trees.
func (h *history) conflictsBelow(cmd command.Command, ts timestamp.Timestamp, fn func(*record)) {
	if cmd.Op == command.OpFence {
		for _, rec := range h.recs {
			if rec.indexed && rec.id() != cmd.ID && rec.ts.Less(ts) && rec.cmd.Conflicts(cmd) {
				fn(rec)
			}
		}
		return
	}
	for id, rec := range h.barriers {
		if id != cmd.ID && rec.ts.Less(ts) && rec.cmd.Conflicts(cmd) {
			fn(rec)
		}
	}
	bound := tsKey{ts: ts}
	for _, k := range cmd.Keys() {
		tree, ok := h.byKey[k]
		if !ok {
			continue
		}
		tree.AscendLess(bound, func(_ tsKey, rec *record) bool {
			if rec.id() != cmd.ID && rec.cmd.Conflicts(cmd) {
				fn(rec)
			}
			return true
		})
	}
}

// conflictsAbove calls fn for every indexed record conflicting with cmd
// whose timestamp is strictly above ts; fn returns false to stop early.
func (h *history) conflictsAbove(cmd command.Command, ts timestamp.Timestamp, fn func(*record) bool) {
	if cmd.Op == command.OpFence {
		for _, rec := range h.recs {
			if rec.indexed && rec.id() != cmd.ID && ts.Less(rec.ts) && rec.cmd.Conflicts(cmd) {
				if !fn(rec) {
					return
				}
			}
		}
		return
	}
	for id, rec := range h.barriers {
		if id != cmd.ID && ts.Less(rec.ts) && rec.cmd.Conflicts(cmd) {
			if !fn(rec) {
				return
			}
		}
	}
	// The bound has the zero command ID, which sorts before any real ID
	// at the same timestamp; since timestamps are never shared between
	// commands, "key > bound" is exactly "record timestamp > ts" for
	// records of other commands, plus possibly cmd itself (filtered).
	bound := tsKey{ts: ts}
	for _, k := range cmd.Keys() {
		tree, ok := h.byKey[k]
		if !ok {
			continue
		}
		stop := false
		tree.AscendGreater(bound, func(_ tsKey, rec *record) bool {
			if rec.id() != cmd.ID && rec.cmd.Conflicts(cmd) {
				if !fn(rec) {
					stop = true
					return false
				}
			}
			return true
		})
		if stop {
			return
		}
	}
}

// predecessorsBelow computes the plain predecessor set of §V-B: every
// conflicting command in H with a timestamp lower than ts.
func (h *history) predecessorsBelow(cmd command.Command, ts timestamp.Timestamp) command.IDSet {
	var pred command.IDSet
	h.conflictsBelow(cmd, ts, func(rec *record) {
		pred.Add(rec.id())
	})
	return pred
}

// computePredecessors is COMPUTEPREDECESSORS of Fig 3: with a nil whitelist
// it returns predecessorsBelow; with a whitelist (recovery), a conflicting
// command qualifies if it is whitelisted, or if it is past the pending
// state (slow-pending/accepted/stable) with a lower timestamp.
func (h *history) computePredecessors(cmd command.Command, ts timestamp.Timestamp, whitelist command.IDSet, hasWhitelist bool) command.IDSet {
	if !hasWhitelist {
		return h.predecessorsBelow(cmd, ts)
	}
	var pred command.IDSet
	for id := range whitelist {
		pred.Add(id)
	}
	h.conflictsBelow(cmd, ts, func(rec *record) {
		switch rec.status {
		case StatusSlowPending, StatusAccepted, StatusStable:
			pred.Add(rec.id())
		}
	})
	return pred
}
