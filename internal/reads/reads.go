// Package reads is the node-local read engine: it serves single-key reads
// and cross-shard snapshot reads from the replica's own store — no
// proposal, no quorum round-trip, no log record — the moment the store
// provably reflects every conflicting command below the read's timestamp.
//
// # Mechanism
//
// A read goes register → stamp → fence → snapshot. It registers with the
// store (kvstore.Store.BeginRead), which keeps every version a write
// replaces until the read returns, and only then is stamped from the key's
// consensus-group logical clock (GroupReader.ReadStamp), above every write
// the group has applied — so no stamp can select what the store dropped
// before the read registered. The stamp is registered against the group's
// delivery frontier (GroupReader.ReadFence): the CAESAR replica parks it
// until every conflicting command it has seen that could still order below
// the stamp has been applied locally — the paper's §IV-A wait condition,
// applied to reads instead of proposals — and the store then answers *as of*
// the stamp even when the frontier has moved past it. A read that begins
// after a write was applied sees it or a later one: a write above the group
// clock (a cross-shard transaction's merged stamp) answers uncovered, the
// clocks are pushed past it, and the retry returns it. A multi-key ReadTx
// fans the fence across every touched group at the merged (max) per-group
// stamp, waits the cross-shard commit table's settle point (no held
// transaction on the keys could still execute below the stamp —
// xshard.Table.WaitSettled), and cuts one snapshot under a single store
// lock, so a cross-shard transaction is observed whole or not at all. A read
// racing a live resize retries under one consistent epoch, exactly like a
// straddling ProposeTx (rebalance's ErrEpochRetry discipline). Every node,
// one group or many, binds its router and commit table (Bind) before it
// serves; a table that holds no transaction on the keys settles at once.
//
// # Allocation
//
// A read allocates nothing it does not return. Its working memory is a
// readState from the engine's pool: Read's one-key list and one-value
// result, the touched groups with their key slices, and a channel with a
// slot per fence registered. The state is the protocol.Completion every
// group's fence completes into, and the store snapshots into the caller's
// slices (kvstore.Store.SnapshotAt), so an unblocked Read allocates nothing
// and a ReadTx only the two slices it returns. A state goes back to the
// pool only once every fence it registered has completed: an attempt that
// returns with one still parked — a cancelled context, an error from one
// group while another is parked, a stopped group — leaves its state to the
// GC, and the retry takes a fresh one, so a stale fence can never release
// a later read. A pooled state keeps its slices but no key, value or
// group reader, so it pins no retired group. OldestPending copies the keys
// it reports, since the list goes back with the state.
//
// # Guarantee
//
// Served reads are real points of the serialization order: a single-key
// read returns the value some prefix of the key's conflict order
// produced, never a torn or reordered state, and a ReadTx snapshot is one
// consistent cut across its keys (atomic transactions appear
// all-or-nothing). Reads through one node are monotone per key (a later
// read never observes an older prefix) and observe every command whose
// acknowledgement this replica has seen — in particular a client that
// writes and reads through the same node always reads its own writes.
// The fence covers the commands the serving replica has *heard of*; a
// command decided elsewhere whose very first message is still in flight
// to this replica serializes after the read, which is the one relaxation
// of strict cross-node real-time order this design buys its zero
// round-trips with (closing it requires leases or a quorum read).
package reads

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// GroupReader is one consensus group's read-frontier surface; the CAESAR
// replica implements it.
type GroupReader interface {
	// ReadStamp issues a fresh read timestamp, strictly above everything
	// the group has applied on this node.
	ReadStamp() timestamp.Timestamp
	// ObserveStamp raises the group's clock to at least ts: every later
	// ReadStamp orders above it.
	ObserveStamp(ts timestamp.Timestamp)
	// ReadFence completes done once every conflicting command the group
	// has seen that could still order below ts has been applied locally:
	// exactly once, from the group's event loop (or inline, with
	// protocol.ErrStopped, on a stopped group), with a nil Err. Complete
	// must not block. keys stays the caller's, read by the group until
	// done completes.
	ReadFence(keys []string, ts timestamp.Timestamp, done protocol.Completion)
}

// ErrUnavailable reports that a key's consensus group has no local read
// support on this node (an engine without read frontiers, e.g. the
// comparison protocols). Every node stack.CaesarEngine builds has a reader
// for each group, so there it surfaces as an error, never as a fallback.
var ErrUnavailable = errors.New("reads: no local read support for the key's consensus group")

// ErrRetriesExhausted reports a read that kept racing resizes (or kept
// falling off the version-retention window) past the retry budget.
var ErrRetriesExhausted = errors.New("reads: read kept racing resizes, retries exhausted")

// errRetry classifies one failed attempt that a fresh routing/stamp
// snapshot can fix: the key moved groups mid-read or the read point fell
// off the store's version window. errRetryStopped is its variant for a
// dead serving group — retriable once (a shrink retired the group and
// the re-route heals it), a node shutdown when it repeats.
var (
	errRetry        = errors.New("reads: attempt invalidated, retry")
	errRetryStopped = errors.New("reads: serving group stopped, retry")
)

// maxAttempts bounds the internal retry loop, mirroring xshard's
// maxEpochRetries: exceeding it means the deployment is resizing
// continuously.
const maxAttempts = 8

// Engine is one node's read engine, shared by every consensus group.
type Engine struct {
	store *kvstore.Store
	met   *metrics.Recorder
	now   func() time.Time

	// router and table are the node's router source and commit table,
	// bound once before the first read.
	router func() shard.Router
	table  *xshard.Table

	mu     sync.RWMutex
	groups map[int]GroupReader
	ctd    *contend.Profile

	// pending tracks in-flight reads from registration in the attempt
	// loop until they return, under their own mutex: the stall
	// watchdog's read-fence-park-age probe reads it from outside the
	// fence machinery, so a read parked on a wedged group is still
	// observable.
	pendingMu  sync.Mutex
	pendingSeq uint64
	pending    map[uint64]pendingRead

	// states holds the *readState of reads that returned with every fence
	// they registered completed.
	states sync.Pool
}

// pendingRead is one in-flight read the watchdog can observe. keys is the
// reader's, so only a copy may leave pendingMu.
type pendingRead struct {
	keys  []string
	since time.Time
}

// readState is one read's working memory, taken from Engine.states: Read's
// one-key list and one-value result, the touched groups with their key
// slices, and the channel the groups' fences complete into, which holds a
// slot per fence registered. A state goes back to the pool only once every
// fence it registered has completed (release); an attempt that returns
// with one still parked leaves its state to the GC, since the fence would
// complete into whichever read took the state next.
type readState struct {
	key     [1]string
	val     [1][]byte
	present [1]bool
	touched []groupRead
	fenced  chan error
	parked  int // fences registered and not yet received
}

// Complete implements protocol.Completion for every fence of an attempt;
// each fires exactly once, from a group's event loop.
func (s *readState) Complete(res protocol.Result) {
	select {
	case s.fenced <- res.Err:
	default: // unreachable: fenced holds a slot for every fence registered
	}
}

// New builds the engine over the node's store. Groups are attached as the
// node stack constructs them; Bind binds the router and the commit table.
func New(store *kvstore.Store, met *metrics.Recorder) *Engine {
	return &Engine{
		store:   store,
		met:     met,
		now:     time.Now,
		groups:  make(map[int]GroupReader),
		pending: make(map[uint64]pendingRead),
		states:  sync.Pool{New: func() any { return new(readState) }},
	}
}

// SetNow installs the clock read-latency measurements are stamped from,
// aligning them with a node stack's injected clock. Call before serving
// reads; nil restores the wall clock.
func (e *Engine) SetNow(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	e.now = now
}

// Attach registers (or replaces, after a resize revives a slot) group g's
// reader. Called by the node stack at group construction, including for
// groups a live resize adds.
func (e *Engine) Attach(g int, r GroupReader) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.groups[g] = r
}

// Bind installs the node's current-router source (xshard.Engine.Router)
// and its cross-shard commit table. Call it once, before the first read.
func (e *Engine) Bind(router func() shard.Router, table *xshard.Table) {
	e.router, e.table = router, table
}

// SetContend binds the node's contention profile: the time a snapshot
// read spends waiting for the cross-shard commit table to settle is then
// attributed to the read's keys (the replica-side fence parks attribute
// themselves through the group's own sketch). nil disables attribution.
func (e *Engine) SetContend(p *contend.Profile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ctd = p
}

func (e *Engine) contendProfile() *contend.Profile {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ctd
}

func (e *Engine) reader(g int) GroupReader {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.groups[g]
}

// Read serves a linearizable local read of key: the returned value is the
// key's state at the read's timestamp, reflecting every conflicting
// command this node has seen below it. present is false for an absent
// key.
func (e *Engine) Read(ctx context.Context, key string) (val []byte, present bool, err error) {
	start := e.now()
	s := e.states.Get().(*readState)
	s.key[0] = key
	// The key and the result stay in the first state even if an attempt
	// leaves it to the GC: no other read can take it.
	keys, vals, pres := s.key[:], s.val[:], s.present[:]
	last, err := e.do(ctx, s, keys, vals, pres)
	if err == nil {
		val, present = vals[0], pres[0]
		e.observe(start, key)
	}
	e.release(last)
	return val, present, err
}

// ReadTx serves a snapshot read of several keys — across consensus groups
// — at one merged read timestamp: a consistent cut in which cross-shard
// transactions appear whole or not at all. Values align with keys; the two
// slices are the read's only allocations when nothing blocks it.
func (e *Engine) ReadTx(ctx context.Context, keys []string) (vals [][]byte, present []bool, err error) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	start := e.now()
	vals, present = make([][]byte, len(keys)), make([]bool, len(keys))
	last, err := e.do(ctx, e.states.Get().(*readState), keys, vals, present)
	e.release(last)
	if err != nil {
		return nil, nil, err
	}
	e.observe(start, keys[0])
	return vals, present, nil
}

// release puts s back into the pool, unless a fence it registered is still
// parked: the GC takes that state. A pooled state keeps its touched list
// and key slices but drops every key, value and group reader, so it pins
// no group a resize has retired or Attach replaced.
func (e *Engine) release(s *readState) {
	if s.parked > 0 {
		return
	}
	s.key[0], s.val[0] = "", nil
	for i := range s.touched[:cap(s.touched)] {
		t := &s.touched[:cap(s.touched)][i]
		clear(t.keys)
		t.reader, t.keys = nil, t.keys[:0]
	}
	e.states.Put(s)
}

// observe records the read's latency with the (first) key as exemplar
// reference: a read-latency tail spike in /statusz then names a concrete
// key whose fence was slow.
func (e *Engine) observe(start time.Time, ref string) {
	if e.met != nil && e.met.ReadLatency != nil {
		e.met.ReadLatency.ObserveRef(e.now().Sub(start), ref)
	}
}

// do runs the attempt loop: route → stamp → fence → settle → snapshot into
// vals and present, retrying under a fresh routing epoch and stamp whenever
// a resize (or a version-window overrun) invalidates the attempt. One
// dead-group retry is expected (a shrink retired the group; the re-route
// heals it); a second consecutive one means the node itself is stopping,
// which the caller should see as such. It returns the state the last
// attempt used, for the caller to release once it has read the result.
func (e *Engine) do(ctx context.Context, s *readState, keys []string, vals [][]byte, present []bool) (*readState, error) {
	e.pendingMu.Lock()
	e.pendingSeq++
	token := e.pendingSeq
	e.pending[token] = pendingRead{keys: keys, since: e.now()}
	e.pendingMu.Unlock()
	defer func() {
		e.pendingMu.Lock()
		delete(e.pending, token)
		e.pendingMu.Unlock()
	}()
	e.store.BeginRead() // before the first stamp (see Mechanism)
	defer e.store.EndRead()
	stopped := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if s.parked > 0 {
			// The last attempt returned with a fence parked, which will
			// complete into s: the retry takes a fresh state.
			s = e.states.Get().(*readState)
		}
		err := e.attempt(ctx, s, keys, vals, present)
		switch {
		case errors.Is(err, errRetryStopped):
			if stopped++; stopped >= 2 {
				return s, protocol.ErrStopped
			}
			continue
		case errors.Is(err, errRetry):
			if e.met != nil {
				e.met.ReadRetries.Inc()
			}
			stopped = 0
			continue
		}
		return s, err
	}
	return s, ErrRetriesExhausted
}

// groupRead is one touched group's share of an attempt.
type groupRead struct {
	group  int
	reader GroupReader
	keys   []string
}

// attempt runs one route → stamp → fence → settle → snapshot pass with s,
// which has no fence parked.
func (e *Engine) attempt(ctx context.Context, s *readState, keys []string, vals [][]byte, present []bool) error {
	// Route every key under one router snapshot; the whole attempt is
	// invalidated together if a resize moves any key (the read-side
	// analogue of a ProposeTx's single-epoch split). The touched list and
	// its key slices are the state's, kept from the reads before.
	router := e.router()
	epoch := router.Epoch()
	touched := s.touched[:0]
	for _, k := range keys {
		g := router.Shard(k)
		i := 0
		for i < len(touched) && touched[i].group != g {
			i++
		}
		if i == len(touched) {
			r := e.reader(g)
			if r == nil {
				return ErrUnavailable
			}
			// Grow keeps the entry past the length, whose key slice is
			// reused; an earlier attempt of this read may have left keys
			// in it.
			touched = slices.Grow(touched, 1)[:i+1]
			t := &touched[i]
			clear(t.keys)
			t.group, t.reader, t.keys = g, r, t.keys[:0]
		}
		touched[i].keys = append(touched[i].keys, k)
	}
	s.touched = touched

	// The read point is the max of the groups' stamps (the commit table's
	// merged-timestamp discipline, applied to the read): each group then
	// fences at that one point.
	var ts timestamp.Timestamp
	for _, t := range touched {
		ts = timestamp.Max(ts, t.reader.ReadStamp())
	}
	if cap(s.fenced) < len(touched) {
		s.fenced = make(chan error, len(touched))
	}
	for _, t := range touched {
		s.parked++
		t.reader.ReadFence(t.keys, ts, s)
	}
	for range touched {
		select {
		case err := <-s.fenced:
			s.parked--
			if err != nil {
				// ErrStopped: the group died under the read (a shrink
				// retired it, or the node is closing). A retry re-routes;
				// on a closing node the loop surfaces the error via the
				// next attempt's fence.
				if errors.Is(err, protocol.ErrStopped) {
					return e.retryOrStopped(ctx)
				}
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Cross-shard settle: a piece applied below the read point parks its
	// transaction in the commit table; the snapshot must wait until no
	// such transaction could still execute at or below the point.
	if settled := e.table.WaitSettled(keys, ts); settled != nil {
		settleStart := e.now()
		select {
		case <-settled:
		case <-ctx.Done():
			return ctx.Err()
		}
		if p := e.contendProfile(); p != nil {
			// A settle wait is a read parked by the commit table: charge
			// the elapsed time to the read's keys in their home groups.
			if wait := e.now().Sub(settleStart); wait > 0 {
				for _, k := range keys {
					p.Group(router.Shard(k)).ParkDone(k, wait)
				}
			}
		}
	}

	// A resize may have installed a newer epoch while the fences waited.
	// A key whose home MOVED must re-route (the fence on the new group is
	// what covers the handed-off traffic). Unmoved keys stayed under the
	// fenced group — but their newest writes now carry the newer epoch
	// stamp, so the snapshot must adopt the current epoch or those
	// (waited-for, acknowledged) writes would be invisible to it.
	cur := e.router()
	if cur.Epoch() != epoch {
		for _, k := range keys {
			if cur.Shard(k) != router.Shard(k) {
				return errRetry
			}
		}
		epoch = cur.Epoch()
	}

	hidden, covered := e.store.SnapshotAt(keys, epoch, ts, vals, present)
	if !covered {
		// No retained version of some key is visible at the read point: a
		// long fence wait under a same-key write burst, or a version
		// stamped above the key's group clock (a cross-shard
		// transaction's merged timestamp). Pushing every touched group's
		// clock past the stamp that hid the point puts the retry's fresh
		// stamp above everything applied; re-stamping alone would leave
		// it below the merged stamp on every attempt.
		for _, t := range touched {
			t.reader.ObserveStamp(hidden)
		}
		return errRetry
	}
	if after := e.router(); after.Epoch() != epoch {
		// Yet another epoch landed between the recheck and the snapshot
		// cut: a write stamped with it could have applied invisibly to
		// the adopted epoch. Rare (two installs inside one read); retry.
		return errRetry
	}
	return nil
}

// OldestPending reports the keys and start instant of the
// longest-running in-flight read — the watchdog's read-fence-park-age
// signal. A read fence parked behind an unapplied command (or a commit
// table that never settles) shows up here long before any client
// timeout fires. The keys are a copy: the read's own list goes back to
// its caller, or to the pool, when the read returns.
func (e *Engine) OldestPending() ([]string, time.Time, bool) {
	e.pendingMu.Lock()
	defer e.pendingMu.Unlock()
	var (
		keys   []string
		oldest time.Time
	)
	for _, p := range e.pending {
		if oldest.IsZero() || p.since.Before(oldest) {
			keys, oldest = p.keys, p.since
		}
	}
	return slices.Clone(keys), oldest, !oldest.IsZero()
}

// retryOrStopped turns a dead-group fence into a stopped-flavored retry
// while the caller's context is live (see do), without spinning on a
// cancelled caller.
func (e *Engine) retryOrStopped(ctx context.Context) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return errRetryStopped
}
