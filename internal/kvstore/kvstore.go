// Package kvstore implements the replicated key-value store used as the
// benchmark application in §VI of the paper: clients issue commands that
// update or read a given key of a fully replicated store, and two commands
// conflict when they access the same key.
//
// Each key has one entry behind one map slot: its current version, stamped
// with the write's decided timestamp and routing epoch, and — only while a
// local read (internal/reads) is in flight — the versions replaced since,
// so a read stamped T is answered *as of* T even when later writes have
// been applied by the time its frontier wait completes. A read point no
// retained version is visible at reports uncovered, and the read layer
// retries with a fresh stamp above the key's retained versions.
//
// Retention follows the readers (BeginRead / EndRead count them): a write
// that finds one pushes the version it replaces onto the key's older list
// (at most versionRing, the oldest falls off); a write that finds none
// replaces the current version in place and drops the list. That is safe
// because a read registers before it takes its stamp: a write that saw no
// reader was applied before the read registered, and its group's clock had
// observed its timestamp before that, so the read's stamp orders above it
// and cannot select what it replaced. The one write stamped above its
// group's clock — a cross-shard transaction's, at its merged timestamp —
// answers a read that began after it uncovered, and the retry returns it.
// Visibility is decided by stamp alone: a lost race costs a retry, never a
// wrong value.
//
// The entry sits behind a pointer because a Go map never gives back its
// widest slots (PR 14): the slot stays 24 bytes whatever the entry holds.
// The entry itself is 48 bytes, one of Go's size classes — 40 for the
// current version (its stamp packed as sequence, node and epoch, then the
// value's slice header) and 8 for the pointer to the older versions, which
// is nil unless a write met a registered read. A nil value is the absence
// a key's first write replaced; an empty put stores a non-nil empty slice.
//
// The store keeps a write's value as the command carries it and never
// copies it: a command's bytes are immutable from submission on (see the
// wire-message comment in internal/caesar/messages.go), so the history
// record, the write-ahead log, every in-process replica and the store can
// share one allocation. The values GetAt, SnapshotAt, Get and Apply return
// are the stored slices and equally read-only; the public API in the root
// package copies where a caller's buffer comes in or goes out. Export and
// Import copy, since their maps belong to the caller.
package kvstore

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// decodeInt reads a stored big-endian int64 (absent or malformed = 0).
func decodeInt(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// versionRing bounds the replaced versions a key retains while reads are
// in flight. Reads only need the window between their stamp and the moment
// their frontier wait completes, so a handful of versions suffices;
// overruns surface as an uncovered read, never a wrong value.
const versionRing = 8

// version is one write's stamped value: the decided timestamp, flattened to
// its sequence and node so that the routing epoch fills what would be the
// timestamp's padding, and the value, nil for absence. Ordering across
// versions of a key follows apply order; a version is visible at a read
// point (epoch, ts) when it was applied under an earlier routing epoch, or
// under the same epoch at or below the read timestamp.
type version struct {
	seq   uint64
	node  timestamp.NodeID
	epoch uint32
	val   []byte
}

// ts returns the version's timestamp.
func (v version) ts() timestamp.Timestamp {
	return timestamp.Timestamp{Seq: v.seq, Node: v.node}
}

// visibleAt reports whether the version is within a read point.
func (v version) visibleAt(epoch uint32, ts timestamp.Timestamp) bool {
	if v.epoch != epoch {
		return v.epoch < epoch
	}
	return !ts.Less(v.ts()) // v.ts() <= ts
}

// entry is one key's state: cur is its newest version — an imported or
// recovered value carries the zero stamp, visible at every read point —
// and older, oldest first, the versions replaced while a read was in
// flight (the zero version, absent, for a key a write created then); nil
// when there are none, so the common entry pays one word for the list.
type entry struct {
	cur   version
	older *[]version
}

// replaced returns the older versions, oldest first.
func (e *entry) replaced() []version {
	if e.older == nil {
		return nil
	}
	return *e.older
}

// current returns the key's value now; a nil entry is an absent key.
func (e *entry) current() ([]byte, bool) {
	if e == nil {
		return nil, false
	}
	return e.cur.val, true
}

// Store is an in-memory key-value store, the node state machine at the
// bottom of every group's chain (protocol.TimestampedAtomicApplier).
// ApplyAt and ApplyAllAt run on the groups' delivery paths, and reads (Get,
// GetAt, Len) may come from other goroutines, so access is guarded.
type Store struct {
	// Innermost rank in the node's declared lock order (see
	// rebalance.Coordinator.mu): nothing may be acquired under it.
	//caesarlint:lockorder store
	mu       sync.RWMutex
	keys     map[string]*entry // every key present
	readers  atomic.Int64      // local reads in flight (BeginRead / EndRead)
	retained int               // older versions held, across all keys
	// applied counts executed commands, for test assertions.
	applied int64
	// Applied-state auditing (see audit.go): per-group digest folds, the
	// attribution function, recent cut-point stamps, and the last fence
	// stamped (each group delivers the same fence once; one stamp set
	// per fence is enough).
	groupFn   GroupFn
	audits    map[int32]*groupAudit
	stamps    []audit.Stamp
	lastFence command.ID
}

var _ protocol.TimestampedAtomicApplier = (*Store)(nil)

// New returns an empty store.
func New() *Store {
	return &Store{
		keys:   make(map[string]*entry),
		audits: make(map[int32]*groupAudit),
	}
}

// BeginRead registers a local read: until the matching EndRead every write
// keeps the version it replaces. Call it before taking the read's stamp.
func (s *Store) BeginRead() { s.readers.Add(1) }

// EndRead releases a BeginRead.
func (s *Store) EndRead() { s.readers.Add(-1) }

// ApplyAt implements protocol.TimestampedApplier: the write becomes the
// key's current version at its decided timestamp (and the command's routing
// epoch), and while a read is in flight the version it replaces is
// retained, so reads stamped at earlier points can still be answered.
func (s *Store) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(cmd, ts)
}

func (s *Store) applyLocked(cmd command.Command, ts timestamp.Timestamp) []byte {
	if cmd.Op == command.OpFence {
		// Fences are consensus barriers, not state-machine commands: the
		// rebalancing gate interprets them and the durable log records
		// them; by the time one reaches a store there is nothing to do,
		// and it must not count as an applied command (crash replay
		// skips control commands, and the two counts must agree). It is,
		// however, a natural audit cut point: stamp every group's digest
		// once per fence (each group delivers the same fence command).
		if cmd.ID != s.lastFence {
			s.lastFence = cmd.ID
			s.stampAllLocked("fence")
		}
		return nil
	}
	s.applied++
	e := s.keys[cmd.Key]
	switch cmd.Op {
	case command.OpPut:
		// Kept as it is, never written into (see the package comment). A
		// nil value is an empty put — a decoded empty value is nil — and
		// must not read as absent.
		v := cmd.Value
		if v == nil {
			v = []byte{}
		}
		s.writeLocked(e, cmd, ts, v)
		return nil
	case command.OpGet:
		v, _ := e.current()
		return v
	case command.OpAdd:
		cur, _ := e.current()
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, uint64(decodeInt(cur)+cmd.AddDelta()))
		s.writeLocked(e, cmd, ts, buf)
		return buf
	default:
		return nil
	}
}

// writeLocked makes val the current version of cmd's key — e is its entry,
// nil on the first write, whose zero cur stands for the absence it replaces
// — and folds the write into the audit digests. With a read in flight the
// replaced version joins older (a full list loses its oldest); with none,
// no read can ask for it or for the ones before it.
func (s *Store) writeLocked(e *entry, cmd command.Command, ts timestamp.Timestamp, val []byte) {
	if e == nil {
		e = &entry{}
		s.keys[cmd.Key] = e
	}
	switch older := e.replaced(); {
	case s.readers.Load() == 0:
		s.retained -= len(older)
		e.older = nil
	case len(older) == versionRing:
		copy(older, older[1:])
		older[versionRing-1] = e.cur
	default:
		if e.older == nil {
			e.older = new([]version)
		}
		*e.older = append(older, e.cur)
		s.retained++
	}
	e.cur = version{seq: ts.Seq, node: ts.Node, epoch: cmd.Epoch, val: val}
	s.foldLocked(cmd, ts, val)
}

// ApplyAllAt implements protocol.TimestampedAtomicApplier: the commands
// execute under one lock hold, so no concurrent reader observes a strict
// subset of their effects, with every write version-stamped at ts — a
// cross-shard transaction's writes all carry its merged timestamp, so a
// snapshot read either sees the whole transaction or none of it.
func (s *Store) ApplyAllAt(cmds []command.Command, ts timestamp.Timestamp) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(cmds))
	for i, cmd := range cmds {
		out[i] = s.applyLocked(cmd, ts)
	}
	return out
}

// GetAt reads key as of the read point (epoch, ts): the newest retained
// version applied under an earlier routing epoch or at/below ts within the
// same epoch. covered=false reports that none is visible at the point (the
// caller retries with a fresh stamp); an imported or recovered key serves
// its value at every point, a key never written its absence.
func (s *Store) GetAt(key string, epoch uint32, ts timestamp.Timestamp) (val []byte, present, covered bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getAtLocked(key, epoch, ts)
}

func (s *Store) getAtLocked(key string, epoch uint32, ts timestamp.Timestamp) (val []byte, present, covered bool) {
	e := s.keys[key]
	if e == nil {
		return nil, false, true
	}
	if e.cur.visibleAt(epoch, ts) {
		return e.cur.val, e.cur.val != nil, true
	}
	older := e.replaced()
	for i := len(older) - 1; i >= 0; i-- {
		if v := older[i]; v.visibleAt(epoch, ts) {
			return v.val, v.val != nil, true
		}
	}
	return nil, false, false
}

// SnapshotAt reads several keys at one read point under a single lock
// hold: because writers (including atomic transaction application) mutate
// under the write lock, the returned values are a consistent cut — a
// transaction's writes appear for all of its keys or for none. When some
// key has no retained version visible at the point (covered=false), hidden
// is the highest stamp among those it retains: a read stamped above it is
// covered again. Those stamps can sit above the key's own group clock — a
// cross-shard transaction's writes carry its merged timestamp — so the
// read layer must push the clock past hidden, not just re-stamp.
func (s *Store) SnapshotAt(keys []string, epoch uint32, ts timestamp.Timestamp) (vals [][]byte, present []bool, hidden timestamp.Timestamp, covered bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vals = make([][]byte, len(keys))
	present = make([]bool, len(keys))
	for i, k := range keys {
		v, p, c := s.getAtLocked(k, epoch, ts)
		if !c {
			e := s.keys[k]
			hidden = e.cur.ts()
			for _, ver := range e.replaced() {
				hidden = timestamp.Max(hidden, ver.ts())
			}
			return nil, nil, hidden, false
		}
		vals[i], present[i] = v, p
	}
	return vals, present, timestamp.Zero, true
}

// Export returns a copy of every entry whose key satisfies pred (nil =
// every entry): the key-value image a WAL snapshot persists, and what
// tests and the benchmark's oracle compare replicas by.
func (s *Store) Export(pred func(key string) bool) map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]byte)
	for k, e := range s.keys {
		if pred != nil && !pred(k) {
			continue
		}
		c := make([]byte, len(e.cur.val))
		copy(c, e.cur.val)
		out[k] = c
	}
	return out
}

// Import writes a snapshot's entries, copying the values: how recovery
// loads a WAL snapshot's image before replaying the log tail. Importing
// does not count toward Applied (the snapshot carries that count; see
// SetApplied). An imported key is one version at the zero stamp with no
// history, over a live key too: every read point sees the imported value.
func (s *Store) Import(snap map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range snap {
		c := make([]byte, len(v)) // never nil: nil is absence
		copy(c, v)
		if e := s.keys[k]; e != nil {
			s.retained -= len(e.replaced())
		}
		s.keys[k] = &entry{cur: version{val: c}}
	}
}

// Get reads a key outside the replication path (for tests and examples).
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keys[key].current()
}

// Len returns the number of keys present.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keys)
}

// RetainedVersions returns the older versions held now, across all keys.
func (s *Store) RetainedVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retained
}

// Applied returns the number of commands executed.
func (s *Store) Applied() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// SetApplied overwrites the executed-command counter. Crash recovery
// (internal/wal) uses it to continue the count a snapshot was taken at, so
// a restarted replica's counters line up with the state it restored.
func (s *Store) SetApplied(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = n
}
