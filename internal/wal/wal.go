// Package wal is the durability layer of a replica: a segmented,
// CRC-checksummed, append-only write-ahead log with group-commit fsync
// batching, plus periodic snapshots with log truncation.
//
// CAESAR's recovery protocol (§V-C of the paper) assumes replicas keep
// their decision state on stable storage; this package supplies the
// stable storage for the part of that state a restarted node actually
// needs to rejoin: everything it has *executed and acknowledged*. Each
// consensus group logs its applied commands at their stable timestamps,
// the cross-shard commit table logs transaction outcomes at their merged
// timestamps, the rebalancing layer logs installed routing epochs, and
// proposers log sequence-number and logical-clock reservations. On restart, OpenInto replays
// the latest snapshot plus the log tail and hands back a State from
// which the node stack rebuilds its store, its per-group
// delivered-command sets (so re-sent decisions are acknowledged but not
// re-applied — exactly-once survives the crash), its commit table's
// settled and pending transactions, its routing epoch and its ID sequence
// floor.
//
// # Group commit
//
// The log layer defers: an append never waits for the disk. A group's
// event loop hands the log a delivered command (ApplyDeferred) and moves
// on to its next decision; the append encodes the record's frame into a
// batch buffer, joins a completion queue and wakes the syncer. The syncer
// goroutine writes and fsyncs whatever accumulated while its previous
// sync was in flight — many decisions, one Sync — and hands the covered
// entries, in one piece, to the log's one completion goroutine, which
// completes them in log order: apply to the store, acknowledge the
// client, release the engine's GC ack. So a record is durable before its
// apply runs and before anyone is told, and the batch grows with the
// arrival rate, which is what keeps durable throughput within a small
// factor of in-memory throughput (HotStuff-1 makes the same trade:
// speculate on the decision, batch the durability).
//
// Order: every entry completes in the order of the log's records, which
// is the order replay reproduces — for every group at once, so an
// executed transaction applies after everything logged before it and
// before anything logged after it, and a snapshot cut exports exactly the
// log prefix before the cut. Applies from several groups would queue on
// the store's one lock in any case; what one goroutine does cost is
// isolation: a state machine that takes time holds back every group's
// later completions.
//
// Who waits for what: an event loop may wait for a sync — a sequence or
// clock reservation returns as soon as its record is synced — and never
// for a completion; a completion (the protocol.Completion ApplyDeferred
// was handed, whose Complete the completer calls once the record is
// durable and applied, or with the error that kept it from the log)
// waits for nothing in the log — only for the store's lock, or for room
// in an inbox it acknowledges into; the
// syncer waits for the disk alone and runs nothing but reservation
// wake-ups. Transactions, epochs, reservations and
// snapshot cuts travel the same queue. The chain has one entry,
// ApplyDeferred, which never waits; the calls that wait for a completion
// (LogCommand, Snapshot) enqueue like everything else and park only their
// own caller, which therefore must be neither a completion nor an event
// loop delivering commands.
//
// # Crash model
//
// The log records the *effects* this node applied, in its local apply
// order, so replay reproduces the node's exact pre-crash application
// state with no re-execution ambiguity. Commands that were in flight —
// proposed, accepted, even decided but not yet applied here — are not
// persisted; the survivors' recovery protocol (suspect, take over,
// finish or noop) and the leaders' Stable retransmission re-deliver
// them after the restart. A torn final record (crash mid-write) is
// detected by CRC and truncated; corruption anywhere earlier fails OpenInto
// loudly rather than replaying a hole.
package wal

import (
	"maps"
	"slices"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// Options tunes a Log. The zero value selects production defaults.
type Options struct {
	// SegmentSize rolls the active segment file once it exceeds this
	// many bytes. Default 8 MiB.
	SegmentSize int64
	// SnapshotBytes is the log growth after which MaybeSnapshot takes a
	// snapshot and truncates the covered segments. Default 4 MiB.
	SnapshotBytes int64
	// Metrics receives fsync batch measurements; may be nil.
	Metrics *metrics.Recorder
	// Trace, when non-nil, records a KindFsync event (attributed to
	// Self) for every command whose log record became durable, extending
	// the consensus trace spine through the durability layer.
	Trace *trace.Ring
	// Flight, when non-nil, journals each snapshot cut into the node's
	// flight recorder (internal/flight).
	Flight *flight.Recorder
	// Self is the node ID trace events are attributed to.
	Self timestamp.NodeID
	// OnEpoch, when non-nil, observes every routing-epoch installation
	// recovered from the log (snapshot history first, then replayed
	// epoch records, in install order). The node stack installs them into
	// its routing-epoch history (shard.Epochs) so digest folds during tail
	// replay attribute writes to the same groups the pre-crash incarnation
	// did.
	OnEpoch func(EpochChange)
	// Now supplies the clock fsync-latency measurements are stamped
	// from, so a node stack running under an injected clock measures
	// durability on the same timeline as everything else. Default
	// time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentSize == 0 {
		o.SegmentSize = 8 << 20
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 4 << 20
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// EpochChange records one installed routing epoch (a resize fence's
// marker): the epoch, its shard count, and the count it replaced.
type EpochChange struct {
	Epoch      uint32
	Shards     int32
	PrevShards int32
}

// State is everything recovered by OpenInto besides the store contents:
// the bookkeeping a restarting node stack needs to rejoin with
// exactly-once application intact. Its ID sets are run-length
// (internal/idset), so what it costs — in memory and in every snapshot —
// grows with the gaps in the IDs, not with how many commands and
// transactions the node has seen.
type State struct {
	// Applied is the replayed store's executed-command count (snapshot
	// plus log tail).
	Applied int64
	// Delivered holds, per consensus group, the set of command IDs this
	// node applied before the crash. A restarted group seeds its
	// delivered set from it so re-sent decisions are acknowledged
	// without re-executing.
	Delivered map[int32]*idset.Set
	// Settled holds the cross-shard transactions that executed or died
	// here, as XIDs converted to command IDs; nil when there are none. The
	// commit table seeds its settled set from it, so re-delivered pieces
	// can neither commit a transaction twice nor revive a dead one.
	Settled *idset.Set
	// PendingTx holds the transactions whose pieces were (partly)
	// delivered here but which had not executed or died by the crash;
	// the commit table re-registers them so its resolution machinery
	// (completion by late pieces, timeout aborts) picks up where the
	// old incarnation stopped.
	PendingTx []PendingTx
	// Epochs is the installed routing-epoch history in install order
	// (the initial epoch first). Empty for unsharded deployments started
	// before durability was enabled.
	Epochs []EpochChange
	// SeqFloor holds, per group, the highest reserved local sequence
	// number: the restarted proposer must assign IDs strictly above it
	// or it would reuse the IDs of pre-crash commands.
	SeqFloor map[int32]uint64
	// ClockFloor holds, per group, the highest reserved logical-clock
	// sequence: the restarted clock must issue strictly above it, or
	// fresh proposals could land below the predecessor's orphaned
	// in-flight commands and deadlock the wait condition.
	ClockFloor map[int32]uint64
	// MaxTS is the highest logical-timestamp sequence the node applied
	// at; restarted clocks advance past it.
	MaxTS uint64
	// Empty reports that nothing was recovered (a fresh data dir).
	Empty bool
}

// GroupSeed bundles one group's recovery inputs in the form the caesar
// engine config takes.
type GroupSeed struct {
	// Delivered is the group's applied-command set; nil when empty. The
	// receiver takes ownership.
	Delivered *idset.Set
	// SeqFloor is the group's reserved-sequence watermark.
	SeqFloor uint64
	// ClockSeed is the timestamp sequence to advance the clock past.
	ClockSeed uint64
	// ReserveSeq durably records a new reservation watermark for the
	// group; nil when the node runs without a log. (Filled by the stack
	// builder, not by State.)
	ReserveSeq func(upto uint64)
	// ReserveClock durably records a new clock-issue watermark for the
	// group; nil when the node runs without a log. (Filled by the stack
	// builder.)
	ReserveClock func(upto uint64)
}

// GroupSeed extracts group g's recovery seed; the zero GroupSeed for a
// group (or state) with nothing recovered.
func (s *State) GroupSeed(g int32) GroupSeed {
	if s == nil {
		return GroupSeed{}
	}
	seed := GroupSeed{SeqFloor: s.SeqFloor[g], ClockSeed: s.MaxTS}
	if cf := s.ClockFloor[g]; cf > seed.ClockSeed {
		seed.ClockSeed = cf
	}
	if set := s.Delivered[g]; set != nil && set.Len() > 0 {
		seed.Delivered = set.Clone()
	}
	return seed
}

// XIDFloor returns the commit table's reserved transaction-sequence
// watermark; new XIDs must start strictly above it.
func (s *State) XIDFloor() uint64 {
	if s == nil {
		return 0
	}
	return s.SeqFloor[txSeqGroup]
}

// CurrentEpoch returns the last installed epoch and its shard count, or
// ok=false when no epoch was ever recorded.
func (s *State) CurrentEpoch() (EpochChange, bool) {
	if s == nil || len(s.Epochs) == 0 {
		return EpochChange{}, false
	}
	return s.Epochs[len(s.Epochs)-1], true
}

// Generations computes, for groups 0..shards-1 of the current epoch, the
// routing epoch each group instance was (most recently) created at — the
// generation its peers' transport mux slots run the group under. A
// restarted node must attach its groups at these generations or its
// traffic would be dropped as stale (and theirs buffered forever).
func (s *State) Generations(shards int) []int32 {
	gens := make([]int32, shards)
	if s == nil {
		return gens
	}
	live := 0
	for _, ec := range s.Epochs {
		n := int(ec.Shards)
		for g := live; g < n && g < shards; g++ {
			gens[g] = int32(ec.Epoch)
		}
		live = n
	}
	return gens
}

// PendingTx is one in-flight cross-shard transaction reconstructed from
// the log: the pieces delivered so far, in the table's own terms.
type PendingTx struct {
	XID    xshard.XID
	Groups []int32
	Ops    []command.Command
	Epoch  uint32
	// Got lists the groups whose piece was delivered before the crash.
	Got []int32
	// Merged is the running max of the delivered pieces' timestamps.
	Merged timestamp.Timestamp
}

// record types on the wire.
const (
	recCommand byte = 1 // one group's applied command at its stable timestamp
	recTx      byte = 2 // an executed cross-shard transaction at its merged timestamp
	recEpoch   byte = 3 // an installed routing epoch
	recSeq     byte = 4 // a proposer sequence reservation
	recClock   byte = 5 // a logical-clock issue reservation
)

// txAgg mirrors one pending commit-table entry during aggregation: enough
// of the table's state machine (piece-before-abort wins per group, settled
// transactions ignore stragglers) to rebuild its pending set at recovery.
type txAgg struct {
	groups []int32
	ops    []command.Command
	epoch  uint32
	got    map[int32]bool
	merged timestamp.Timestamp
}

// aggregates is the log's running recovery bookkeeping: rebuilt from
// snapshot + replay at OpenInto, extended on every append, persisted into
// the next snapshot. Guarded by Log.mu.
type aggregates struct {
	delivered map[int32]*idset.Set
	// settled holds the XIDs that executed or died; txs the transactions
	// still pending, each until it joins settled.
	settled    *idset.Set
	txs        map[xshard.XID]*txAgg
	epochs     []EpochChange
	seqFloor   map[int32]uint64
	clockFloor map[int32]uint64
	maxTS      uint64
}

func newAggregates() *aggregates {
	return &aggregates{
		delivered:  make(map[int32]*idset.Set),
		settled:    idset.New(),
		txs:        make(map[xshard.XID]*txAgg),
		seqFloor:   make(map[int32]uint64),
		clockFloor: make(map[int32]uint64),
	}
}

// decodeXPayload decodes the cross-shard payload noteCommand needs: the
// piece of an OpXCommit, the marker of an OpXAbort, nil for every other
// command (and for a payload that does not decode, which the commit table
// ignores too; on replay that is never an older build's layout, whose
// segments replaySegment refuses by their magic).
func decodeXPayload(cmd command.Command) (piece *xshard.Piece, abort *xshard.Abort) {
	switch cmd.Op {
	case command.OpXCommit:
		piece, _ = xshard.DecodePiece(cmd.Payload)
	case command.OpXAbort:
		abort, _ = xshard.DecodeAbort(cmd.Payload)
	}
	return piece, abort
}

// noteCommand folds one delivered command in; piece and abort are
// decodeXPayload(cmd), decoded by the caller outside the log's lock.
func (a *aggregates) noteCommand(group int32, cmd command.Command, ts timestamp.Timestamp, piece *xshard.Piece, abort *xshard.Abort) {
	set := a.delivered[group]
	if set == nil {
		set = idset.New()
		a.delivered[group] = set
	}
	if !cmd.ID.IsZero() {
		set.Add(cmd.ID)
	}
	if ts.Seq > a.maxTS {
		a.maxTS = ts.Seq
	}
	switch {
	case piece != nil:
		a.notePiece(group, piece, ts, cmd.Epoch)
	case abort != nil:
		a.noteAbort(group, abort.XID)
	}
}

// notePiece mirrors Table.registerPiece for recovery bookkeeping.
func (a *aggregates) notePiece(group int32, p *xshard.Piece, ts timestamp.Timestamp, epoch uint32) {
	e := a.txs[p.XID]
	if e == nil {
		if a.settled.Has(command.ID(p.XID)) {
			return
		}
		e = &txAgg{got: make(map[int32]bool)}
		a.txs[p.XID] = e
	}
	if e.got[group] {
		return
	}
	if len(e.groups) == 0 {
		e.groups, e.ops, e.epoch = p.Groups, p.Ops, epoch
	}
	e.got[group] = true
	if e.merged.Less(ts) {
		e.merged = ts
	}
}

// noteAbort mirrors Table.registerAbort: a marker beaten by its group's
// piece, or arriving after the transaction settled, is a no-op; otherwise
// the transaction is dead.
func (a *aggregates) noteAbort(group int32, xid xshard.XID) {
	if e := a.txs[xid]; e != nil && e.got[group] {
		return
	}
	a.settle(xid)
}

// settle moves xid from the pending transactions to the settled set.
func (a *aggregates) settle(xid xshard.XID) {
	delete(a.txs, xid)
	a.settled.Add(command.ID(xid))
}

func (a *aggregates) noteTx(xid xshard.XID, merged timestamp.Timestamp) {
	a.settle(xid)
	if merged.Seq > a.maxTS {
		a.maxTS = merged.Seq
	}
}

// state copies every aggregate out, into the recovery State OpenInto
// returns and the body of the next snapshot: the single place aggregate
// fields are copied out, and restore the single place they are copied in.
// The store-side field (Applied) is filled by the caller. Callers hold the
// log's mu.
func (a *aggregates) state() State {
	st := State{
		Delivered:  make(map[int32]*idset.Set, len(a.delivered)),
		PendingTx:  a.pending(),
		Epochs:     slices.Clone(a.epochs),
		SeqFloor:   maps.Clone(a.seqFloor),
		ClockFloor: maps.Clone(a.clockFloor),
		MaxTS:      a.maxTS,
	}
	for g, set := range a.delivered {
		st.Delivered[g] = set.Clone()
	}
	if a.settled.Len() > 0 {
		st.Settled = a.settled.Clone()
	}
	return st
}

// restore seeds fresh aggregates from a snapshot's State, which it takes
// over.
func (a *aggregates) restore(st State) {
	maps.Copy(a.delivered, st.Delivered)
	if st.Settled != nil {
		a.settled = st.Settled
	}
	for _, p := range st.PendingTx {
		e := &txAgg{groups: p.Groups, ops: p.Ops, epoch: p.Epoch, merged: p.Merged, got: make(map[int32]bool)}
		for _, g := range p.Got {
			e.got[g] = true
		}
		a.txs[p.XID] = e
	}
	a.epochs = st.Epochs
	maps.Copy(a.seqFloor, st.SeqFloor)
	maps.Copy(a.clockFloor, st.ClockFloor)
	a.maxTS = st.MaxTS
}

// pending extracts the still-pending transactions, for State.
func (a *aggregates) pending() []PendingTx {
	var out []PendingTx
	for xid, e := range a.txs {
		p := PendingTx{XID: xid, Groups: e.groups, Ops: e.ops, Epoch: e.epoch, Merged: e.merged}
		for g := range e.got {
			p.Got = append(p.Got, g)
		}
		out = append(out, p)
	}
	return out
}

func (a *aggregates) noteEpoch(ec EpochChange) {
	a.epochs = append(a.epochs, ec)
}

func (a *aggregates) noteSeq(group int32, upto uint64) {
	if upto > a.seqFloor[group] {
		a.seqFloor[group] = upto
	}
}

func (a *aggregates) noteClock(group int32, upto uint64) {
	if upto > a.clockFloor[group] {
		a.clockFloor[group] = upto
	}
}
