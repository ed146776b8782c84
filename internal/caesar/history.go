package caesar

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// record is everything a replica holds about one command, in one place.
// The first six fields are the paper's tuple of the history H_i (§V-A):
// the current timestamp, predecessor set, status, ballot and forced flag;
// promised is the command's entry of Ballots (Fig 4, Fig 5). The rest is
// bookkeeping the paper leaves to the implementation — delivery, takeover
// timers and, on the replica that leads the command, the coordinator.
//
// A command this replica knows only by name — a Recover arrived for it, or
// a stable record lists it as a predecessor — is a record whose status is
// StatusNone and whose cmd carries nothing but the ID; ensure fills the
// payload in when a message brings it.
//
// A record is a slot of the history's chunk (internal/chunk), never reused:
// a purged record may still be held — the open list lets go of it only at
// its next scan — and records are purged roughly in the order they were
// made, so a chunk of them is let go soon after its last one is.
type record struct {
	cmd command.Command
	ts  timestamp.Timestamp
	// pred is shared with the message it arrived in or went out in and is
	// never written in place (see the wire-message comment in messages.go):
	// breakLoop, the one writer, copies first.
	pred   []command.ID
	status Status
	ballot uint32
	forced bool
	// promised is Ballots[c]: proposals and prepares below it are ignored.
	promised uint32

	// next and prev link the history's records in creation order; remove
	// clears them.
	next, prev *record

	// delivered is set once the command has been handed to the applier;
	// applied once the applier completed it (a deferring chain may hold
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
	// the record unfinished; a record still unfinished a full stuck timeout
	// later is recovered even if its leader looks alive (it may be a
	// restarted incarnation that lost the command).
	stuckSince time.Time
	// indexed tracks whether the record currently appears in the
	// conflict index (at timestamp ts).
	indexed bool
	// waitingOn is the predecessor this stable record is currently
	// parked on in the delivery pipeline (zero when none); parked lists
	// the stable records parked on this one, woken by its delivery.
	waitingOn command.ID
	parked    []*record
	// reads lists the read fences waiting for this command to be applied
	// (internal/reads): a read at timestamp T parks on every known
	// conflicting command that could still order below T.
	reads []*readWaiter
	// recoverAt is when this replica takes the command over (zero: no
	// takeover scheduled) — the stagger delay between suspecting its
	// leader and preparing; recovery is the prepare in flight, if any.
	recoverAt time.Time
	recovery  *recovery

	// Leader side. coord is set on the replica that leads the command —
	// a client submitted it here, or this replica recovered it. acked
	// holds which replicas acknowledged the delivery, one bit per node ID
	// (a sender outside 0..63 sets none): a full set queues the purge,
	// clear bits drive retransmission. It sits outside coord because acks
	// for commands a previous incarnation of this node led arrive here
	// too, and the purge duty with them.
	coord *coordinator
	acked uint64
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

// keyList is one key's indexed records, sorted by (timestamp, command ID),
// and its purge fence. The index maps a key to a pointer, not to the slice
// itself: a Go map never gives back the slots of its largest size, and a
// 24-byte slice header in each of them showed on the benchmark's
// live_heap_mb (+0.2 MB on lan3-mem, +0.8 MB on lan3-mixed4g). first backs
// the list while it holds one record — the common case — so a fresh key
// still costs a single allocation.
//
// fence is the highest timestamp of a purged command on the key (see
// gc.go). An entry whose list is empty stays while its fence is above the
// history's floor, so a key that comes back reuses it.
//
// An entry that leaves the index is cleared — first would otherwise keep
// its purged record, and the record's chunk, alive — and kept on the
// history's spare list for list to reuse. Entries are recycled, not
// chunked: a hot key's entry lives as long as the key stays busy, and would
// pin its chunk. No *keyList leaves the history's methods, and no conflicts
// callback indexes or unindexes, so nothing holds an entry that is reused.
type keyList struct {
	recs  []*record
	first [1]*record
	fence timestamp.Timestamp
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
	recs map[command.ID]*record
	// first and last bound the list of all records in creation order:
	// whatever walks the history (a fence's conflict scans, Stable
	// retransmission, shutdown) visits it in an order that is a function
	// of the messages handled, never of a map's layout. open holds, in the
	// same order, the records not yet delivered — the only ones a timer
	// can be running for; see unfinished.
	first, last *record
	open        []*record
	// byKey is the conflict index and the purge fence, one entry per key.
	byKey map[string]*keyList
	// spare holds cleared entries that left byKey, for list to reuse, so a
	// fresh key costs no allocation. made counts the entries list has made
	// since the previous floor raise (raiseFloor, once per GC tick), and
	// lastMade those of the interval before it; spare never grows past
	// their sum while entries are dropped, and a raise trims it to what the
	// two intervals before it made. The bound spans two intervals because a
	// raise drops entries in batches the heartbeats set, which may exceed
	// what its own interval made. A backlog's entries (lan3-mixed4g's
	// preload drops 16 k) are therefore let go by the third raise after it
	// drained, and after two raises with no entry made spare is empty.
	spare    []*keyList
	made     int
	lastMade int
	// records is the chunk every record is taken from (event-loop state,
	// like the rest of the history).
	records chunk.Of[record]
	// barriers holds the indexed OpFence records, in the order they were
	// indexed. A fence conflicts with every command, so it lives outside
	// the per-key lists: ordinary conflict scans consult this (usually
	// empty) list as well, and a fence's own scans walk the whole history
	// instead of key lists — resizes are rare, so the one-off O(history)
	// pass is cheap.
	barriers           []*record
	recsPeak, keysPeak int // for recs and byKey; see shrink
	// floor follows the cluster's purge horizon: below it any proposal is
	// rejected, and a key's fence at or below it is forgotten. See gc.go.
	floor timestamp.Timestamp
	// purgedBarrier is the highest timestamp of a purged fence: every
	// command conflicted with it, so proposals below it are rejected even
	// though the record is gone. purgedMax is the highest timestamp of
	// any purged record — the same guard for a future fence proposal,
	// which conflicts with everything that was ever delivered.
	purgedBarrier timestamp.Timestamp
	purgedMax     timestamp.Timestamp
	// scratch collects a predecessor set's IDs before scratchSet copies
	// them out; the event loop that owns the history owns it too.
	scratch []command.ID
}

func newHistory() *history {
	return &history{
		recs:  make(map[command.ID]*record),
		byKey: make(map[string]*keyList),
	}
}

// get returns the record for id, or nil.
func (h *history) get(id command.ID) *record {
	return h.recs[id]
}

// ensure returns the record for cmd, creating an empty (StatusNone,
// unindexed) one if absent. A cmd that is only an ID asks for the record
// of a command known by name; a record that was one until now takes cmd as
// its payload.
func (h *history) ensure(cmd command.Command) *record {
	rec, ok := h.recs[cmd.ID]
	switch {
	case !ok:
		rec = h.records.Next()
		rec.cmd, rec.prev = cmd, h.last
		if h.last == nil {
			h.first = rec
		} else {
			h.last.next = rec
		}
		h.last = rec
		h.open = append(h.open, rec)
		h.recs[cmd.ID] = rec
		h.recsPeak = max(h.recsPeak, len(h.recs))
	case rec.cmd.Op == 0 && cmd.Op != 0:
		rec.cmd = cmd
		// The stuck scan timed how long delivery was parked on the name;
		// the record it can now see starts its own two-phase count.
		rec.stuckSince = time.Time{}
	}
	return rec
}

// unfinished returns the records not yet delivered, in creation order,
// dropping from the list those that have been since the last call. It is
// what the periodic scans walk: a timer (fast-quorum timeout, takeover
// stagger, prepare deadline, stuck mark) only ever runs for an undelivered
// command, so their cost follows what is in flight, not the history kept
// until the purge. The result is a snapshot: records created during the
// walk are met on the next one.
func (h *history) unfinished() []*record {
	kept := h.open[:0]
	for _, rec := range h.open {
		if !rec.delivered {
			kept = append(kept, rec)
		}
	}
	clear(h.open[len(kept):])
	h.open = kept
	return kept
}

// write replaces the record's tuple (§V-A) and repositions it in the
// conflict index. pred is stored as it is: see record.pred.
func (h *history) write(rec *record, status Status, ts timestamp.Timestamp, pred []command.ID, ballot uint32, forced bool) {
	rec.status, rec.pred, rec.ballot, rec.forced = status, pred, ballot, forced
	h.setTimestamp(rec, ts)
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
		h.barriers = append(h.barriers, rec)
		return
	}
	pos := tsKey{ts: rec.ts, id: rec.id()}
	for _, k := range rec.cmd.Keys() {
		l := h.list(k)
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

// list returns k's entry, making an empty one — a spare, when there is
// one — if the key has none.
func (h *history) list(k string) *keyList {
	l := h.byKey[k]
	if l == nil {
		if n := len(h.spare); n > 0 {
			l = h.spare[n-1]
			h.spare[n-1] = nil
			h.spare = h.spare[:n-1]
		} else {
			l = &keyList{}
		}
		l.recs = l.first[:0]
		h.byKey[k] = l
		h.keysPeak = max(h.keysPeak, len(h.byKey))
		h.made++
	}
	return l
}

// drop clears an entry that has left byKey and keeps it as a spare while
// spare holds fewer than bound.
func (h *history) drop(l *keyList, bound int) {
	*l = keyList{}
	if len(h.spare) < bound {
		h.spare = append(h.spare, l)
	}
}

// unindex removes the record from the conflict index; a key whose list
// empties leaves the map unless its fence is above the floor.
func (h *history) unindex(rec *record) {
	if !rec.indexed {
		return
	}
	rec.indexed = false
	if rec.cmd.Op == command.OpFence {
		i := slices.Index(h.barriers, rec)
		h.barriers = slices.Delete(h.barriers, i, i+1)
		return
	}
	pos := tsKey{ts: rec.ts, id: rec.id()}
	for _, k := range rec.cmd.Keys() {
		l := h.byKey[k]
		i, present := slices.BinarySearchFunc(l.records(), pos, cmpRecord)
		switch {
		case !present:
		case len(l.recs) > 1 || h.floor.Less(l.fence):
			l.recs = slices.Delete(l.recs, i, i+1)
		default:
			delete(h.byKey, k)
			h.byKey = shrink(h.byKey, &h.keysPeak)
			h.drop(l, h.lastMade+h.made)
		}
	}
}

// remove purges the record entirely (garbage collection). Its links are
// cleared: a purged record stays reachable while a sibling in its chunk
// lives, and a next link would then keep every record made after it, one
// chunk after another. Only a PurgeBatch removes records, and no walk of
// the history handles one, so no walk stands on a record as it goes.
func (h *history) remove(rec *record) {
	h.unindex(rec)
	delete(h.recs, rec.id())
	h.recs = shrink(h.recs, &h.recsPeak)
	if rec.prev == nil {
		h.first = rec.next
	} else {
		rec.prev.next = rec.next
	}
	if rec.next == nil {
		h.last = rec.prev
	} else {
		rec.next.prev = rec.prev
	}
	rec.next, rec.prev = nil, nil
}

const shrinkFrom = 1024 // the smallest peak shrink rebuilds a map from

// shrink returns m, or a copy sized to what m holds once that is under a
// quarter of *peak, the most it held since it was made (reset here). A Go
// map never gives back the slots of its peak, so recs and byKey would keep
// the node's longest backlog: lan3-mixed4g's preload, 2,000 to 3,700
// records per group by scheduling, moved live_heap_mb by up to 2.5 MB.
// Smaller peaks stay: under churn a map settles at 8–10 slots per entry,
// and a rebuild would restart that growth at a moment set by scheduling.
func shrink[K comparable, V any](m map[K]V, peak *int) map[K]V {
	if *peak < shrinkFrom || 4*len(m) >= *peak {
		return m
	}
	c := make(map[K]V, len(m))
	maps.Copy(c, m)
	*peak = len(c)
	return c
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

// The two sides of a timestamp a conflict scan can ask for.
const below, above = false, true

// conflicts calls fn once for every indexed record conflicting with cmd
// whose timestamp is strictly on the asked side of ts, until fn returns
// false. A fence conflicts with everything, so a fence command scans the
// whole history, and every ordinary command checks the (usually empty)
// barrier list on top of its key lists.
func (h *history) conflicts(cmd command.Command, ts timestamp.Timestamp, side bool, fn func(*record) bool) {
	// unkeyed is the test for a record met outside the key lists.
	unkeyed := func(rec *record) bool {
		onSide := rec.ts.Less(ts)
		if side == above {
			onSide = ts.Less(rec.ts)
		}
		return onSide && rec.id() != cmd.ID && rec.cmd.Conflicts(cmd)
	}
	if cmd.Op == command.OpFence {
		for rec := h.first; rec != nil; rec = rec.next {
			if rec.indexed && unkeyed(rec) && !fn(rec) {
				return
			}
		}
		return
	}
	for _, rec := range h.barriers {
		if unkeyed(rec) && !fn(rec) {
			return
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
		switch cut, at := slices.BinarySearchFunc(recs, bound, cmpRecord); {
		case side == below:
			recs = recs[:cut]
		case at:
			recs = recs[cut+1:]
		default:
			recs = recs[cut:]
		}
		for _, rec := range recs {
			if reportable(rec, cmd, keys[:i]) && !fn(rec) {
				return
			}
		}
	}
}

// predecessorsBelow computes the plain predecessor set of §V-B: every
// conflicting command in H with a timestamp lower than ts. The set is
// freshly built: the caller owns it until it sends it.
func (h *history) predecessorsBelow(cmd command.Command, ts timestamp.Timestamp) []command.ID {
	h.scratch = h.scratch[:0]
	h.conflicts(cmd, ts, below, func(rec *record) bool {
		h.scratch = append(h.scratch, rec.id())
		return true
	})
	return h.scratchSet()
}

// scratchSet returns the IDs collected in scratch as a set the caller owns:
// sorted, compacted and copied out in one allocation, nil when empty —
// where growing the set one insert at a time reallocates at every doubling,
// and lan3-mixed4g's hot keys reach 73 conflicts.
func (h *history) scratchSet() []command.ID {
	if len(h.scratch) == 0 {
		return nil
	}
	return slices.Clone(slices.Compact(command.SortIDs(h.scratch)))
}

// computePredecessors is COMPUTEPREDECESSORS of Fig 3: with no whitelist
// it returns predecessorsBelow; with a whitelist (recovery), a conflicting
// command qualifies if it is whitelisted, or if it is past the pending
// state (slow-pending/accepted/stable) with a lower timestamp.
func (h *history) computePredecessors(cmd command.Command, ts timestamp.Timestamp, whitelist []command.ID, hasWhitelist bool) []command.ID {
	if !hasWhitelist {
		return h.predecessorsBelow(cmd, ts)
	}
	h.scratch = h.scratch[:0]
	h.conflicts(cmd, ts, below, func(rec *record) bool {
		switch rec.status {
		case StatusSlowPending, StatusAccepted, StatusStable:
			h.scratch = append(h.scratch, rec.id())
		}
		return true
	})
	return command.UnionIDs(whitelist, h.scratchSet())
}
