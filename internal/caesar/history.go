package caesar

import (
	"cmp"
	"slices"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
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

// tsKey is a position in a key's conflict list: a timestamp, with the
// command ID as a defensive tie-break (the protocol never attaches one
// timestamp to two commands — every timestamp comes from a unique
// Clock.Next call — but the index must not corrupt if that invariant is
// ever violated).
type tsKey struct {
	ts timestamp.Timestamp
	id command.ID
}

// cmpRecord orders an indexed record against a position.
func cmpRecord(rec *record, k tsKey) int {
	if c := rec.ts.Compare(k.ts); c != 0 {
		return c
	}
	id := rec.id()
	if c := cmp.Compare(id.Node, k.id.Node); c != 0 {
		return c
	}
	return cmp.Compare(id.Seq, k.id.Seq)
}

// keyList is one key's indexed records, sorted by (timestamp, command ID).
// The index maps a key to a pointer, not to the slice itself: a Go map
// never gives back the slots of its largest size, and a 24-byte slice
// header in each of them showed on the benchmark's live_heap_mb (+0.2 MB
// on lan3-mem, +0.8 MB on lan3-mixed4g). first backs the list while it
// holds one record — the common case — so a fresh key still costs a
// single allocation.
type keyList struct {
	recs  []*record
	first [1]*record
}

// records returns the list; a key absent from the index has none.
func (l *keyList) records() []*record {
	if l == nil {
		return nil
	}
	return l.recs
}

// history is H_i plus the per-key conflict index: for every key, the
// records touching that key in one slice sorted by (timestamp, command
// ID). The paper's implementation (§VI) tracks conflicting commands in a
// red–black tree ordered by timestamp; a sorted slice serves here because
// of how few records a key holds between a command's first message and
// its purge. Measured on the benchmark's workloads (records already on
// the key at each insert, 20 s runs): none for 99.7 % of inserts on
// lan3-mem and 99.9 % on lan3-durable (never more than 2), none for 87 %
// and at most 6 on geo5-conflict, and on lan3-mixed4g, whose zipf-1.1 hot
// keys queue up, none for 58 %, 20 at the 90th percentile, 73 at most. At
// those depths a binary search and a memmove cost what a tree descent
// does and allocate no node. BenchmarkConflictIndex keeps the crossover
// on record: against the tree this replaced, an insert in the middle of a
// key's list draws level around 64 records and is 15 to 25 % slower at
// 1,024, while a tail insert — the protocol's common case, since
// timestamps only move up — is two to three times cheaper from 64
// records on and a scan costs the same.
type history struct {
	recs  map[command.ID]*record
	byKey map[string]*keyList
	// barriers holds the indexed OpFence records. A fence conflicts with
	// every command, so it lives outside the per-key lists: ordinary
	// conflict scans consult this (usually empty) set as well, and a
	// fence's own scans walk the whole history instead of key lists —
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
		byKey:    make(map[string]*keyList),
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
	rec.indexed = true
	if rec.cmd.Op == command.OpFence {
		h.barriers[rec.id()] = rec
		return
	}
	pos := tsKey{ts: rec.ts, id: rec.id()}
	for _, k := range rec.cmd.Keys() {
		l := h.byKey[k]
		if l == nil {
			l = &keyList{}
			l.recs = l.first[:0]
			h.byKey[k] = l
		}
		// present only when the command names k twice.
		if i, present := slices.BinarySearchFunc(l.recs, pos, cmpRecord); !present {
			l.recs = slices.Insert(l.recs, i, rec)
			if len(l.recs) == 2 {
				// The list has outgrown first for good; what first still
				// points at must not outlive its purge.
				l.first[0] = nil
			}
		}
	}
}

// unindex removes the record from the conflict index; a key whose list
// empties leaves the map.
func (h *history) unindex(rec *record) {
	if !rec.indexed {
		return
	}
	rec.indexed = false
	if rec.cmd.Op == command.OpFence {
		delete(h.barriers, rec.id())
		return
	}
	pos := tsKey{ts: rec.ts, id: rec.id()}
	for _, k := range rec.cmd.Keys() {
		l := h.byKey[k]
		i, present := slices.BinarySearchFunc(l.records(), pos, cmpRecord)
		switch {
		case !present:
		case len(l.recs) == 1:
			delete(h.byKey, k)
		default:
			l.recs = slices.Delete(l.recs, i, i+1)
		}
	}
}

// remove purges the record entirely (garbage collection).
func (h *history) remove(rec *record) {
	h.unindex(rec)
	delete(h.recs, rec.id())
}

// touches reports whether k is one of the command's keys.
func touches(cmd command.Command, k string) bool {
	return cmd.Key == k || slices.Contains(cmd.ExtraKeys, k)
}

// reportable decides whether rec, met in the list of one of cmd's keys, is
// handed to a scan's callback: it is another command, it conflicts with
// cmd, and it touches none of cmd's earlier keys — there it was met
// already, so every record is reported once however many keys it shares
// with cmd.
func reportable(rec *record, cmd command.Command, earlier []string) bool {
	if rec.id() == cmd.ID {
		return false
	}
	for _, k := range earlier {
		if touches(rec.cmd, k) {
			return false
		}
	}
	return rec.cmd.Conflicts(cmd)
}

// conflictsBelow calls fn once for every indexed record conflicting with
// cmd whose timestamp is strictly below ts. A fence conflicts with
// everything, so a fence command scans the whole history, and every
// ordinary command checks the (usually empty) barrier set on top of its
// key lists.
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
	keys := cmd.Keys()
	for i, k := range keys {
		for _, rec := range h.byKey[k].records() {
			if cmpRecord(rec, bound) >= 0 {
				break
			}
			if reportable(rec, cmd, keys[:i]) {
				fn(rec)
			}
		}
	}
}

// conflictsAbove calls fn once for every indexed record conflicting with
// cmd whose timestamp is strictly above ts; fn returns false to stop early.
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
	// commands, "position > bound" is exactly "record timestamp > ts" for
	// records of other commands, plus possibly cmd itself (filtered).
	bound := tsKey{ts: ts}
	keys := cmd.Keys()
	for i, k := range keys {
		recs := h.byKey[k].records()
		from, at := slices.BinarySearchFunc(recs, bound, cmpRecord)
		if at {
			from++
		}
		for _, rec := range recs[from:] {
			if reportable(rec, cmd, keys[:i]) && !fn(rec) {
				return
			}
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
