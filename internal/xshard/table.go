package xshard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// TableConfig tunes one node's commit table.
type TableConfig struct {
	// Self is this node's ID; it stamps XIDs, staggers survivor-side
	// resolution and decides which entries carry a client callback.
	Self timestamp.NodeID
	// Exec is the node state machine transactions execute against: each
	// one as one indivisible unit at its merged timestamp.
	Exec protocol.TimestampedAtomicApplier
	// ApplyTx, when non-nil, executes a completed transaction instead of
	// Exec: it receives the transaction's identity, merged timestamp and
	// ops, in the table's decision order, and must not block — it may
	// apply later, in call order, and reports through done exactly once,
	// from any goroutine: nil once the ops are in the store, the error
	// when they never will be. The durable layer (internal/wal) uses it to append
	// the outcome and apply atomically once the record is durable, so
	// crash recovery re-seeds exactly the executed set; the table is
	// called from inside that layer's completions, so a wait here would
	// be a wait on itself.
	ApplyTx func(xid XID, merged timestamp.Timestamp, ops []command.Command, done func(error))
	// XIDFloor is the highest transaction sequence a crashed predecessor
	// may have used (its durable reservation watermark): fresh XIDs start
	// strictly above it. Without it a restarted coordinator would mint
	// XIDs colliding with its predecessor's — which are seeded as settled,
	// silently swallowing the new transaction's pieces.
	XIDFloor uint64
	// ReserveXID, when non-nil, durably records a new XID reservation
	// before sequences beyond the previous watermark are used; taken in
	// blocks, so the (fsynced) call is rare.
	ReserveXID func(upto uint64)
	// Metrics receives CrossShardCommits/CrossShardAborts; may be nil.
	Metrics *metrics.Recorder
	// Trace, when non-nil, records the cross-shard lifecycle of each
	// transaction piece — hold (registered in the table), exec and abort
	// — against the piece's command ID, extending the consensus trace
	// spine through the commit layer.
	Trace *trace.Ring
	// ResolveTimeout is how long a transaction may sit incomplete in the
	// table before this node proposes abort markers to the groups whose
	// pieces are missing. Default 3s.
	ResolveTimeout time.Duration
	// Now is the clock deadlines are computed from. Default time.Now.
	Now func() time.Time
	// Contend, when non-nil, receives each resolved transaction's held
	// age attributed to its keys (internal/contend): the time the
	// transaction kept those keys pinned in the table before executing
	// or dying.
	Contend *contend.Profile
}

func (c TableConfig) withDefaults() TableConfig {
	if c.ResolveTimeout == 0 {
		c.ResolveTimeout = 3 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// entry is one pending transaction's state in the table: its pieces are
// still being collected, or it waits for a conflicting one to go first.
type entry struct {
	xid    XID
	groups []int32
	ops    []command.Command
	keys   map[string]struct{}
	// epoch is the routing epoch the transaction's pieces were
	// partitioned under; survivor-side resolution rebuilds the same
	// per-group key split from it.
	epoch uint32
	// got marks the groups whose piece was delivered before any abort
	// marker of that group.
	got map[int32]bool
	// merged is the running max of the registered pieces' stable
	// timestamps — a lower bound until the entry completes, the
	// transaction's execution timestamp after.
	merged timestamp.Timestamp
	// done is the client callback; set only on the coordinating node.
	done protocol.DoneFunc
	// deadline is the next resolution attempt.
	deadline time.Time
	// regAt is when this node first learned of the transaction; the
	// held-transaction-age gauge (OldestHeld) reads it.
	regAt time.Time
	// pieceIDs are the consensus command IDs of the pieces registered
	// here, so the trace spine can record the transaction's outcome
	// against each piece's CommandHistory.
	pieceIDs []command.ID
}

// complete reports whether every participating group delivered its piece.
func (e *entry) complete() bool {
	return len(e.groups) > 0 && len(e.got) == len(e.groups)
}

// drainWaiter parks a callback until a snapshot of in-flight transactions
// has fully resolved (executed or died). The rebalancing layer uses it to
// finish a source group's state handoff only after every transaction that
// group ordered before its resize fence has settled.
type drainWaiter struct {
	remaining map[XID]struct{}
	fn        func()
}

// settleWaiter parks a snapshot read (internal/reads) until no held
// transaction touching its keys could still execute at or below its
// timestamp bound: an entry's merged timestamp only grows as pieces
// register, so entries whose running merged value already exceeds the
// bound are invisible to the read and not waited for. Unlike drainWaiter
// the blocking set is re-computed when it empties — a transaction whose
// first piece lands below the bound mid-wait joins it.
type settleWaiter struct {
	keys      []string
	bound     timestamp.Timestamp
	remaining map[XID]struct{}
	done      chan struct{}
}

// landing is an executed transaction whose writes have not reached the
// store yet — a durable layer applies them after the record's sync. It is
// settled already, but handoff drains and snapshot reads must keep waiting
// for it exactly as if it were still held.
type landing struct {
	groups []int32
	keys   map[string]struct{}
	merged timestamp.Timestamp
	epoch  uint32
}

// Table is one node's cross-shard commit table: it holds each in-flight
// transaction's delivered pieces until all participating groups have
// stabilized theirs, then executes the transaction atomically at the
// merged (max) timestamp. It is shared by all of the node's group appliers
// and by the submit-side coordinator (Engine).
//
// Entries are indexed by key: registering a piece touches only the entries
// that actually conflict with the transaction, so the drain pass after a
// registration is O(conflicts), not O(table²) — the difference between a
// flat table and one holding hundreds of in-flight transactions under one
// mutex (see BenchmarkTableRegister).
//
// A transaction that executed or died leaves the entries for the settled
// set, which remembers it for the node's lifetime at the cost of the runs
// its coordinator's XIDs form (internal/idset) — one per coordinator in
// the steady state, not a record per transaction. A late piece, abort
// marker, KillStale or Expect for a settled XID is a no-op, and resolution
// walks the pending transactions only.
type Table struct {
	cfg TableConfig
	// history is the node's routing-epoch history: survivor-side abort
	// markers are keyed by the router of the transaction's own epoch, so
	// they conflict with the pieces they chase even when the current
	// epoch has moved on. Lookups are lock-free, so Resolve reads it
	// under the table lock without reaching above it in the lock order.
	history *shard.Epochs
	// submit proposes a command on one group: the Engine's SubmitTo,
	// set by NewEngine.
	submit func(group int, cmd command.Command, done protocol.DoneFunc)

	// Ranked "table" in the node's declared lock order (see
	// rebalance.Coordinator.mu): may be taken under the rebalance gate,
	// never above it, and never while holding the store lock.
	//caesarlint:lockorder table
	mu          sync.Mutex
	xidReserved uint64
	// entries holds the pending transactions; settled, every XID that
	// executed or died here (an XID converts to a command.ID).
	entries map[XID]*entry
	settled *idset.Set
	// pendingByKey indexes the pending entries by every key they touch;
	// completed holds the pending entries whose pieces have all arrived
	// (the only drain candidates).
	pendingByKey  map[string]map[*entry]struct{}
	completed     map[*entry]struct{}
	landing       map[XID]landing
	drainWaiters  []*drainWaiter
	settleWaiters []*settleWaiter
	nextSeq       uint64
	// queue holds executions and client callbacks decided under mu, to
	// be run outside it (the applier may sleep, callbacks may re-enter
	// the table); flushing marks the single goroutine draining it, which
	// keeps the apply order identical to the decision order.
	queue    []func()
	flushing bool

	// halted marks a table shut down by stopAndFail: nothing pending can
	// resolve anymore, so settle waiters release instead of parking.
	halted bool
}

// NewTable builds an empty commit table over the node's routing-epoch
// history. A table nothing calls Resolve on may be given a nil history.
func NewTable(cfg TableConfig, history *shard.Epochs) *Table {
	return &Table{
		cfg:          cfg.withDefaults(),
		history:      history,
		nextSeq:      cfg.XIDFloor,
		xidReserved:  cfg.XIDFloor,
		entries:      make(map[XID]*entry),
		settled:      idset.New(),
		pendingByKey: make(map[string]map[*entry]struct{}),
		completed:    make(map[*entry]struct{}),
		landing:      make(map[XID]landing),
	}
}

// xidReserveBlock is how many transaction sequences one durable
// reservation covers.
const xidReserveBlock = 4096

// nextXID mints a transaction ID for this coordinator. With a durable
// log attached, the reservation watermark is persisted before any
// sequence beyond the previous block is used, so XIDs are never reused
// across a crash-restart.
func (t *Table) nextXID() XID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSeq++
	if t.cfg.ReserveXID != nil && t.nextSeq > t.xidReserved {
		t.xidReserved = t.nextSeq + xidReserveBlock
		t.cfg.ReserveXID(t.xidReserved)
	}
	return XID{Node: t.cfg.Self, Seq: t.nextSeq}
}

// SeedSettled marks transactions as settled — crash recovery seeds the
// set a restarted node's write-ahead log replayed, and the table keeps a
// copy. A leader may re-send the Stable decisions of unacknowledged pieces
// at any time after the restart, and a re-registered piece set must never
// re-commit a transaction the pre-crash table already applied (nor revive
// one it saw die). Call before traffic flows.
func (t *Table) SeedSettled(settled *idset.Set) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settled = settled.Clone()
}

// SeedPending re-registers a transaction whose pieces a crashed
// predecessor had delivered (and logged) but which had not executed or
// died by the crash: got lists the groups whose piece arrived, merged is
// their timestamp max. The entry joins the table's normal lifecycle —
// late pieces complete it, resolution aborts it on timeout —
// with no client callback (that client is gone). Call before traffic
// flows.
func (t *Table) SeedPending(xid XID, groups []int32, ops []command.Command, epoch uint32, got []int32, merged timestamp.Timestamp) {
	t.mu.Lock()
	defer t.flush()
	defer t.mu.Unlock()
	e := t.pendingLocked(xid)
	if e == nil || len(e.groups) > 0 {
		return
	}
	t.fillLocked(e, groups, ops, epoch)
	stagger := time.Duration(int32(t.cfg.Self)+1) * t.cfg.ResolveTimeout / 4
	e.deadline = t.cfg.Now().Add(t.cfg.ResolveTimeout + stagger)
	for _, g := range got {
		e.got[g] = true
	}
	e.merged = merged
	if e.complete() {
		t.completed[e] = struct{}{}
	}
	t.drainLocked()
}

// PendingDetail renders every in-flight entry's state — XID, groups,
// registered pieces, merged bound, epoch, client callback, deadline —
// for tests and stall diagnostics.
func (t *Table) PendingDetail() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for xid, e := range t.entries {
		got := make([]int32, 0, len(e.got))
		for g := range e.got {
			got = append(got, g)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		out = append(out, fmt.Sprintf(
			"xid=%v groups=%v got=%v merged=%v epoch=%d complete=%v done=%v deadline=%s",
			xid, e.groups, got, e.merged, e.epoch, e.complete(), e.done != nil,
			e.deadline.Format("15:04:05.000")))
	}
	sort.Strings(out)
	return out
}

// DebugDrainWaiters renders each parked handoff-drain waiter's remaining
// blocking set and those transactions' current states, for stall
// diagnostics: the pieces a pending one holds, or settled (and still
// landing, while its writes are on their way to the store).
func (t *Table) DebugDrainWaiters() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for i, w := range t.drainWaiters {
		var xids []string
		n := 0
		for xid := range w.remaining {
			state := "settled"
			if e := t.entries[xid]; e != nil {
				state = fmt.Sprintf("got=%d/%d", len(e.got), len(e.groups))
			} else if _, ok := t.landing[xid]; ok {
				state = "settled, landing"
			}
			xids = append(xids, fmt.Sprintf("%v(%s)", xid, state))
			if n++; n >= 8 {
				break
			}
		}
		sort.Strings(xids)
		out = append(out, fmt.Sprintf("drain[%d]: %d remaining: %v", i, len(w.remaining), xids))
	}
	return out
}

// Pending returns the number of in-flight transactions, for tests and
// introspection.
func (t *Table) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// OldestHeld identifies the oldest in-flight transaction: its XID, when
// this node first learned of it, and a representative registered piece
// command (zero until any piece lands). The stall watchdog's held-tx
// probe uses it to name the wedged transaction — and, through the piece
// ID, to pull its traced CommandHistory into the diagnosis bundle; the
// held-age gauge reads its age. A growing age on a live node means some
// transaction's pieces (or abort markers) are not landing.
func (t *Table) OldestHeld() (XID, time.Time, command.ID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var (
		xid    XID
		oldest time.Time
		piece  command.ID
	)
	for _, e := range t.entries {
		if e.regAt.IsZero() {
			continue
		}
		if oldest.IsZero() || e.regAt.Before(oldest) {
			xid, oldest = e.xid, e.regAt
			piece = command.ID{}
			if len(e.pieceIDs) > 0 {
				piece = e.pieceIDs[0]
			}
		}
	}
	return xid, oldest, piece, !oldest.IsZero()
}

// stopAndFail fails the pending client callbacks with
// protocol.ErrStopped.
func (t *Table) stopAndFail() {
	t.mu.Lock()
	if t.halted {
		t.mu.Unlock()
		return
	}
	t.halted = true
	var dones []protocol.DoneFunc
	for _, e := range t.entries {
		if e.done != nil {
			dones = append(dones, e.done)
			e.done = nil
		}
	}
	// Parked snapshot reads are released rather than stranded: their
	// blocking transactions fail with ErrStopped below, so nothing below
	// their read point can execute anymore.
	for _, w := range t.settleWaiters {
		close(w.done)
	}
	t.settleWaiters = nil
	t.mu.Unlock()
	for _, done := range dones {
		done(protocol.Result{Err: protocol.ErrStopped})
	}
}

// flush drains the action queue outside the lock. Only one goroutine
// drains at a time, so actions run in exactly the order they were decided;
// a second caller returns immediately and its actions run on the drainer.
func (t *Table) flush() {
	t.mu.Lock()
	if t.flushing {
		t.mu.Unlock()
		return
	}
	t.flushing = true
	// Actions queued while one runs land behind it; once all have run the
	// queue keeps its backing array for the next batch.
	for i := 0; i < len(t.queue); i++ {
		fn := t.queue[i]
		t.queue[i] = nil
		t.mu.Unlock()
		fn()
		t.mu.Lock()
	}
	t.queue = t.queue[:0]
	t.flushing = false
	t.mu.Unlock()
}

// pendingLocked returns the pending entry for xid, creating it if absent,
// or nil once xid has settled: a late Expect, piece, marker or KillStale
// must not resurrect a settled transaction into the pending index, where
// its zero merged bound would block every same-key transaction behind it.
// Callers hold t.mu.
func (t *Table) pendingLocked(xid XID) *entry {
	e := t.entries[xid]
	if e == nil {
		if t.settled.Has(command.ID(xid)) {
			return nil
		}
		e = &entry{xid: xid, got: make(map[int32]bool)}
		t.entries[xid] = e
	}
	return e
}

// settleLocked moves a resolving entry from the pending table to the
// settled set.
func (t *Table) settleLocked(e *entry) {
	delete(t.entries, e.xid)
	t.settled.Add(command.ID(e.xid))
}

// fillLocked populates an entry's transaction body if still unknown and
// indexes it by its keys.
func (t *Table) fillLocked(e *entry, groups []int32, ops []command.Command, epoch uint32) {
	if len(e.groups) > 0 {
		return
	}
	e.groups = groups
	e.ops = ops
	e.epoch = epoch
	e.regAt = t.cfg.Now()
	e.keys = make(map[string]struct{})
	for _, k := range command.KeyUnion(ops) {
		e.keys[k] = struct{}{}
		m := t.pendingByKey[k]
		if m == nil {
			m = make(map[*entry]struct{})
			t.pendingByKey[k] = m
		}
		m[e] = struct{}{}
	}
}

// unindexLocked removes a settling entry from the key index and the drain
// candidates.
func (t *Table) unindexLocked(e *entry) {
	for k := range e.keys {
		if m := t.pendingByKey[k]; m != nil {
			delete(m, e)
			if len(m) == 0 {
				delete(t.pendingByKey, k)
			}
		}
	}
	delete(t.completed, e)
}

// noteResolvedLocked resolves xid for both waiter classes — snapshot
// readers and handoff drains release together, when nothing of the
// transaction is still on its way to the store: it died (or was seeded
// dead), or its apply has landed (settleAfterApply). A waiter woken at
// decision time could cut its snapshot, or complete its handoff, before
// the transaction's writes reach the store.
func (t *Table) noteResolvedLocked(xid XID) {
	t.noteSettledLocked(xid)
	t.noteDrainedLocked(xid)
}

// noteSettledLocked resolves xid for the parked snapshot readers.
func (t *Table) noteSettledLocked(xid XID) {
	if len(t.settleWaiters) == 0 {
		return
	}
	kept := t.settleWaiters[:0]
	for _, w := range t.settleWaiters {
		delete(w.remaining, xid)
		// Re-check from scratch when the recorded set empties: new
		// qualifying entries may have registered since the last scan.
		if len(w.remaining) == 0 {
			if w.remaining = t.settleBlockersLocked(w.keys, w.bound); w.remaining == nil {
				close(w.done)
				continue
			}
		}
		kept = append(kept, w)
	}
	for i := len(kept); i < len(t.settleWaiters); i++ {
		t.settleWaiters[i] = nil
	}
	t.settleWaiters = kept
}

// settleAfterApply finishes an executed transaction once its apply has
// landed (or, err, never will — a log that refused the record): it
// resolves xid for the waiters and fires the client callback. It runs
// outside the lock: on the queue flusher without a durable layer, on the
// log's completer with one, hence the flush for the releases it queued.
func (t *Table) settleAfterApply(xid XID, done protocol.DoneFunc, err error) {
	t.mu.Lock()
	delete(t.landing, xid)
	t.noteResolvedLocked(xid)
	t.mu.Unlock()
	t.flush()
	if done != nil {
		done(protocol.Result{Err: err})
	}
}

// noteDrainedLocked resolves xid for the parked handoff drains, queueing
// the callbacks whose snapshot is fully resolved.
func (t *Table) noteDrainedLocked(xid XID) {
	if len(t.drainWaiters) == 0 {
		return
	}
	kept := t.drainWaiters[:0]
	for _, w := range t.drainWaiters {
		delete(w.remaining, xid)
		if len(w.remaining) == 0 {
			t.queue = append(t.queue, w.fn)
			continue
		}
		kept = append(kept, w)
	}
	for i := len(kept); i < len(t.drainWaiters); i++ {
		t.drainWaiters[i] = nil
	}
	t.drainWaiters = kept
}

// AwaitGroupDrain snapshots the in-flight transactions of routing epochs
// before epoch holding a piece delivered by the given group and parks fn
// until every one of them has resolved (applied or died); fn fires
// immediately when there are none. The snapshot is replica-deterministic
// when taken at a fixed point of the group's delivery order — the
// rebalancing layer calls it while applying the group's resize fence for
// epoch, so every node waits for the same transaction set before
// completing the group's state handoff. Transactions of epoch itself are
// left out: the handoff holds their pieces, so waiting for them would
// wait on itself.
func (t *Table) AwaitGroupDrain(group int32, epoch uint32, fn func()) {
	t.mu.Lock()
	defer t.flush()
	w := &drainWaiter{remaining: make(map[XID]struct{}), fn: fn}
	for xid, e := range t.entries {
		if e.got[group] && e.epoch < epoch {
			w.remaining[xid] = struct{}{}
		}
	}
	for xid, ld := range t.landing {
		if ld.epoch < epoch && slices.Contains(ld.groups, group) {
			w.remaining[xid] = struct{}{}
		}
	}
	if len(w.remaining) == 0 {
		t.queue = append(t.queue, fn)
	} else {
		t.drainWaiters = append(t.drainWaiters, w)
	}
	t.mu.Unlock()
}

// WaitSettled reports when no in-flight transaction touching any of keys
// can still execute at a merged timestamp at or below bound. It returns
// nil when none can now, or when the table has stopped (nothing pending
// can ever resolve; stopAndFail failed the clients). Otherwise it returns
// a channel that is closed, under the table lock, once the read settles
// or the table stops. The local-read engine calls it after its
// consensus-frontier wait: a piece applied below a read's timestamp sits
// in this table until its siblings stabilize, and the read must not serve
// state that is missing a transaction it would have to observe. A read
// that nothing blocks allocates nothing here.
func (t *Table) WaitSettled(keys []string, bound timestamp.Timestamp) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.halted {
		return nil
	}
	remaining := t.settleBlockersLocked(keys, bound)
	if remaining == nil {
		return nil
	}
	w := &settleWaiter{keys: keys, bound: bound, remaining: remaining, done: make(chan struct{})}
	t.settleWaiters = append(t.settleWaiters, w)
	return w.done
}

// settleBlockersLocked computes through the key index the transactions
// that could still execute on keys at or below bound; nil, with no map
// allocated, means nothing blocks the read point now.
func (t *Table) settleBlockersLocked(keys []string, bound timestamp.Timestamp) map[XID]struct{} {
	var remaining map[XID]struct{}
	block := func(xid XID) {
		if remaining == nil {
			remaining = make(map[XID]struct{})
		}
		remaining[xid] = struct{}{}
	}
	for _, k := range keys {
		for e := range t.pendingByKey[k] {
			if !bound.Less(e.merged) { // lower bound <= read point: could execute below it
				block(e.xid)
			}
		}
	}
	for xid, ld := range t.landing {
		if bound.Less(ld.merged) {
			continue
		}
		for _, k := range keys {
			if _, ok := ld.keys[k]; ok {
				block(xid)
				break
			}
		}
	}
	return remaining
}

// Expect registers the coordinator-side entry before its pieces are
// submitted; done (may be nil) fires on local execution or abort. The
// coordinator gets the earliest resolution deadline — it is the node best
// placed to notice a participant that never landed. Exported for the
// layered engines (xshard's own coordinator, rebalance tests).
func (t *Table) Expect(xid XID, groups []int32, ops []command.Command, epoch uint32, done protocol.DoneFunc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.pendingLocked(xid)
	if e == nil {
		return
	}
	t.fillLocked(e, groups, ops, epoch)
	e.done = done
	e.deadline = t.cfg.Now().Add(t.cfg.ResolveTimeout)
}

// registerPiece records one group's delivered piece; called from that
// group's delivery goroutine via the group applier. ts is the piece's
// stable timestamp within its group (zero for engines without timestamps);
// epoch is the routing epoch the piece was submitted under; cmdID is the
// piece's consensus command ID (zero when unknown), kept for the trace
// spine.
func (t *Table) registerPiece(group int32, p *Piece, ts timestamp.Timestamp, epoch uint32, cmdID command.ID) {
	if !cmdID.IsZero() {
		t.cfg.Trace.Record(t.cfg.Self, trace.KindTxHold, cmdID, ts)
	}
	t.mu.Lock()
	defer t.flush()
	defer t.mu.Unlock()
	e := t.pendingLocked(p.XID)
	if e == nil {
		return // settled: executed already, or dead in some group
	}
	if len(e.groups) == 0 {
		// First sighting on this node: survivors learn the full
		// transaction from any piece and stagger their resolution
		// deadline behind the coordinator's by node rank.
		t.fillLocked(e, p.Groups, p.Ops, epoch)
		stagger := time.Duration(int32(t.cfg.Self)+1) * t.cfg.ResolveTimeout / 4
		e.deadline = t.cfg.Now().Add(t.cfg.ResolveTimeout + stagger)
	}
	if e.got[group] {
		return
	}
	e.got[group] = true
	if !cmdID.IsZero() {
		e.pieceIDs = append(e.pieceIDs, cmdID)
	}
	if e.merged.Less(ts) {
		e.merged = ts
	}
	if e.complete() {
		t.completed[e] = struct{}{}
	}
	t.drainLocked()
}

// registerAbort records one group's abort marker. If that group's piece
// was delivered first the marker lost the race and is a no-op; otherwise
// the group — and with it the transaction — is dead on every node, since
// all nodes deliver the conflicting marker/piece pair in the same order.
func (t *Table) registerAbort(group int32, a *Abort) {
	t.mu.Lock()
	defer t.flush()
	defer t.mu.Unlock()
	e := t.pendingLocked(a.XID)
	if e == nil || e.got[group] {
		return
	}
	t.killLocked(e, ErrAborted)
	t.drainLocked()
}

// KillStale kills a transaction whose participant piece for the given
// group was ordered after the group's resize fence under an outdated
// routing epoch. Deterministic on every node: the fence/piece order is
// fixed by the group's consensus, so all replicas kill (or none do). The
// coordinator's client callback reports ErrEpochRetry, which
// Engine.Submit turns into a re-partition and re-proposal under the new
// epoch.
func (t *Table) KillStale(group int32, xid XID) {
	t.mu.Lock()
	defer t.flush()
	defer t.mu.Unlock()
	e := t.pendingLocked(xid)
	if e == nil {
		return
	}
	t.killLocked(e, ErrEpochRetry)
	t.drainLocked()
}

// holdAttributeLocked charges a resolving entry's held age to each of
// its keys in the contention profile, before the entry's key set is
// released. The age is the time from first registration to resolution
// (execute or kill) — how long the transaction pinned those keys.
func (t *Table) holdAttributeLocked(e *entry) {
	p := t.cfg.Contend
	if p == nil || len(e.keys) == 0 || e.regAt.IsZero() {
		return
	}
	age := t.cfg.Now().Sub(e.regAt)
	g := 0
	if len(e.groups) > 0 {
		g = int(e.groups[0])
	}
	cg := p.Group(g)
	for k := range e.keys {
		cg.Hold(k, age)
	}
}

// killLocked settles an entry as dead and queues its client failure with
// the given reason.
func (t *Table) killLocked(e *entry, reason error) {
	t.holdAttributeLocked(e)
	t.unindexLocked(e)
	t.settleLocked(e)
	t.noteResolvedLocked(e.xid)
	for _, id := range e.pieceIDs {
		t.cfg.Trace.Record(t.cfg.Self, trace.KindTxAbort, id, e.merged)
	}
	if t.cfg.Metrics != nil {
		t.cfg.Metrics.CrossShardAborts.Inc()
	}
	if done := e.done; done != nil {
		t.queue = append(t.queue, func() { done(protocol.Result{Err: reason}) })
	}
}

// drainLocked executes every completed transaction whose turn has come:
// completed entries run in (routing epoch, merged timestamp) order, and an
// entry defers while a conflicting incomplete transaction could still rank
// below it (runsBefore). Execution can unblock further
// entries, so the pass loops until a fixpoint. Only the completed set is
// scanned, and each candidate's blockers are found through the key index —
// one registration costs O(its conflicts), not a rescan of every held
// entry.
func (t *Table) drainLocked() {
	for len(t.completed) > 0 {
		ready := make([]*entry, 0, len(t.completed))
		for e := range t.completed {
			ready = append(ready, e)
		}
		sort.Slice(ready, func(i, j int) bool {
			if ready[i].epoch != ready[j].epoch || ready[i].merged != ready[j].merged {
				return runsBefore(ready[i], ready[j])
			}
			if ready[i].xid.Node != ready[j].xid.Node {
				return ready[i].xid.Node < ready[j].xid.Node
			}
			return ready[i].xid.Seq < ready[j].xid.Seq
		})
		progress := false
		var blockedKeys map[string]struct{}
		for _, e := range ready {
			// Blocking is transitive through completed entries: if an
			// earlier-timestamped conflicting entry is deferred, this one
			// must defer too, or replicas where the earlier one was not
			// deferred would execute the pair in the opposite order.
			if t.blockedLocked(e) || touchesAny(e, blockedKeys) {
				if blockedKeys == nil {
					blockedKeys = make(map[string]struct{})
				}
				for k := range e.keys {
					blockedKeys[k] = struct{}{}
				}
				continue
			}
			t.executeLocked(e)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// touchesAny reports whether e shares a key with the blocked-key set.
func touchesAny(e *entry, keys map[string]struct{}) bool {
	if len(keys) == 0 {
		return false
	}
	for k := range e.keys {
		if _, ok := keys[k]; ok {
			return true
		}
	}
	return false
}

// runsBefore is the execution order of conflicting transactions: an
// earlier routing epoch first, then the lower merged timestamp. The epoch
// comes first because timestamps of different epochs do not compare: the
// groups a resize creates start their clocks near zero, so a transaction
// of the new epoch can merge far below one the old epoch ordered before
// the resize fence. For an incomplete entry, merged is a lower bound.
func runsBefore(a, b *entry) bool {
	if a.epoch != b.epoch {
		return a.epoch < b.epoch
	}
	return a.merged.Less(b.merged)
}

// blockedLocked reports whether a completed entry must wait: a conflicting
// transaction is still collecting pieces and could still order first — an
// earlier epoch's, or one of the same epoch whose merged-timestamp lower
// bound is at or below this entry's final timestamp (ties included —
// per-group timestamp spaces are independent, so equal timestamps across
// transactions are possible, and XID breaks the tie only once both are
// complete). The blocker eventually completes, dies, or is aborted by the
// resolution timer — each of which re-drains the table. Blockers are found
// through the key index: only entries actually sharing a key are examined.
func (t *Table) blockedLocked(e *entry) bool {
	for k := range e.keys {
		for o := range t.pendingByKey[k] {
			if o == e || o.complete() {
				continue
			}
			if !runsBefore(e, o) {
				return true
			}
		}
	}
	return false
}

// executeLocked settles one completed transaction as executed and queues
// its atomic application and client callback; the queue runs them outside
// the lock (the applier may sleep, the callback may re-enter the table),
// in decision order.
func (t *Table) executeLocked(e *entry) {
	t.holdAttributeLocked(e)
	t.unindexLocked(e)
	t.settleLocked(e)
	xid, merged, ops, done := e.xid, e.merged, e.ops, e.done
	t.landing[xid] = landing{groups: e.groups, keys: e.keys, merged: merged, epoch: e.epoch}
	for _, id := range e.pieceIDs {
		t.cfg.Trace.Record(t.cfg.Self, trace.KindTxExec, id, merged)
	}
	if t.cfg.Metrics != nil {
		t.cfg.Metrics.CrossShardCommits.Inc()
	}
	exec, applyTx := t.cfg.Exec, t.cfg.ApplyTx
	t.queue = append(t.queue, func() {
		if applyTx != nil {
			applyTx(xid, merged, ops, func(err error) { t.settleAfterApply(xid, done, err) })
			return
		}
		exec.ApplyAllAt(ops, merged)
		t.settleAfterApply(xid, done, nil)
	})
}

// pieceFailed reacts to a participant submission that could not be placed
// (e.g. the group engine stopped): the client learns the error right away
// and the entry's deadline is pulled forward so the next sweep proposes
// abort markers to the groups that never got their piece. The markers are
// ordered against the pieces by consensus, so a transaction whose pieces
// all landed anyway still commits — the early error then reports an
// unknown outcome, not a guaranteed abort.
func (t *Table) pieceFailed(xid XID, err error) {
	t.mu.Lock()
	defer t.flush()
	defer t.mu.Unlock()
	e := t.entries[xid]
	if e == nil {
		return
	}
	if e.done != nil {
		done := e.done
		e.done = nil
		t.queue = append(t.queue, func() { done(protocol.Result{Err: err}) })
	}
	e.deadline = t.cfg.Now()
}

// Resolve runs one resolution sweep: it proposes abort markers for
// transactions stuck past their deadline.
// Marker submissions are repeated every ResolveTimeout until the
// transaction executes or dies — duplicates are harmless, losing every
// race they cannot win. The node stack's maintenance loop calls it every
// tick (internal/stack); every deadline it compares is a TableConfig.Now
// instant, so resolution is fully drivable under simulated time. Markers are keyed by the entry's own routing
// epoch, so they conflict with the pieces they chase even while a resize
// is moving the current epoch on.
func (t *Table) Resolve() {
	now := t.cfg.Now()
	type marker struct {
		xid   XID
		group int
		cmd   command.Command
	}
	var markers []marker
	t.mu.Lock()
	for xid, e := range t.entries {
		if !now.After(e.deadline) || len(e.groups) == 0 {
			continue
		}
		router, ok := t.history.RouterAt(e.epoch)
		if !ok {
			continue
		}
		parts, err := partition(router, e.ops)
		if err != nil {
			continue
		}
		for _, g := range e.groups {
			if e.got[g] {
				continue
			}
			cmd, err := AbortCommand(e.xid, g, parts[int(g)])
			if err != nil {
				continue
			}
			cmd.Epoch = e.epoch
			markers = append(markers, marker{xid: xid, group: int(g), cmd: cmd})
		}
		e.deadline = now.Add(t.cfg.ResolveTimeout)
	}
	submit := t.submit
	t.mu.Unlock()
	if submit == nil {
		return
	}
	for _, m := range markers {
		xid := m.xid
		submit(m.group, m.cmd, func(res protocol.Result) {
			if errors.Is(res.Err, ErrNoGroup) {
				// The participant group no longer exists (retired by a
				// shrink). Retirement implies the group's pre-fence
				// history was fully delivered here — had the piece been
				// ordered before the fence it would have registered, and
				// ordered after it the epoch gate would have killed the
				// entry — so the piece was never ordered anywhere and
				// the transaction can never commit. Kill it locally;
				// every replica's own sweep reaches the same verdict,
				// releasing the conflicting transactions blockedLocked
				// was holding for it.
				t.killUnreachable(xid)
			}
		})
	}
}

// killUnreachable kills a pending transaction whose abort marker cannot
// even be proposed because the participant group is gone; see Resolve.
func (t *Table) killUnreachable(xid XID) {
	t.mu.Lock()
	defer t.flush()
	defer t.mu.Unlock()
	e := t.entries[xid]
	if e == nil {
		return
	}
	t.killLocked(e, ErrAborted)
	t.drainLocked()
}

// Applier wraps one group's applier chain: cross-shard pieces and markers
// are intercepted into the table, everything else passes through with its
// timestamp.
func (t *Table) Applier(group int, inner protocol.TimestampedApplier) protocol.TimestampedApplier {
	return &groupApplier{t: t, group: int32(group), inner: inner}
}

// groupApplier is the per-group interception layer.
type groupApplier struct {
	t     *Table
	group int32
	inner protocol.TimestampedApplier
}

// ApplyAt implements protocol.TimestampedApplier; ts is the command's
// stable timestamp within this group.
func (a *groupApplier) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	switch cmd.Op {
	case command.OpXCommit:
		if p, err := DecodePiece(cmd.Payload); err == nil {
			a.t.registerPiece(a.group, p, ts, cmd.Epoch, cmd.ID)
		}
		return nil
	case command.OpXAbort:
		if ab, err := DecodeAbort(cmd.Payload); err == nil {
			a.t.registerAbort(a.group, ab)
		}
		return nil
	}
	return a.inner.ApplyAt(cmd, ts)
}
