// Package kvstore implements the replicated key-value store used as the
// benchmark application in §VI of the paper: clients issue commands that
// update or read a given key of a fully replicated store, and two commands
// conflict when they access the same key.
//
// Each key has one entry behind one map slot: its current value, a small
// ring of recent versions stamped with each write's decided timestamp and
// routing epoch (the MVCC window behind internal/reads) and the base, the
// key's state just below the ring. A local read registered at timestamp T
// is answered with the value *as of* T even when later writes have been
// applied by the time its frontier wait completes; a read point that falls
// off the window (versionRing versions) reports uncovered and the read
// layer retries with a fresh stamp above the key's retained versions.
//
// The ring is a slice that grows 1 → versionRing, not the fixed
// [versionRing]version that would save its allocations: at 56 bytes a
// version that is 448 bytes for every key written once, ≈ 33 MB over the
// 3 × 24,676 keys of the benchmark's lan3-mem run. The entry sits behind a
// pointer because a Go map never gives back its widest slots (PR 14): the
// slot stays 24 bytes whatever the entry holds.
package kvstore

import (
	"encoding/binary"
	"sync"

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

// versionRing bounds the per-key recent-version history. Reads only need
// the window between their stamp and the moment their frontier wait
// completes, so a handful of versions suffices; overruns surface as an
// uncovered read, never a wrong value.
const versionRing = 8

// version is one write's stamped value. Ordering across versions of a key
// follows apply order; a version is visible at a read point (epoch, ts)
// when it was applied under an earlier routing epoch, or under the same
// epoch at or below the read timestamp.
type version struct {
	epoch   uint32
	ts      timestamp.Timestamp
	val     []byte
	present bool
}

// visibleAt reports whether the version is within a read point.
func (v version) visibleAt(epoch uint32, ts timestamp.Timestamp) bool {
	if v.epoch != epoch {
		return v.epoch < epoch
	}
	return !ts.Less(v.ts) // v.ts <= ts
}

// entry is one key's state. ring is oldest first and nil until the first
// recorded write — an imported or recovered key serves val at every read
// point; base is the last evicted version or, until one is evicted, what
// the first recorded write found (an imported value, or absence) at the
// zero stamp. val is the newest version's unless an Import overwrote it.
type entry struct {
	val  []byte
	ring []version
	base version
}

// current returns the key's value now; a nil entry is an absent key.
func (e *entry) current() ([]byte, bool) {
	if e == nil {
		return nil, false
	}
	return e.val, true
}

// Store is an in-memory key-value store satisfying protocol.Applier.
// Apply is invoked from a single goroutine per replica, but reads (Get,
// GetAt, Len) may come from other goroutines, so access is guarded.
type Store struct {
	// Innermost rank in the node's declared lock order (see
	// rebalance.Coordinator.mu): nothing may be acquired under it.
	//caesarlint:lockorder store
	mu   sync.RWMutex
	keys map[string]*entry // every key present
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

// Apply executes one command and returns its result (the stored value for
// a GET, nil otherwise).
func (s *Store) Apply(cmd command.Command) []byte {
	return s.ApplyAt(cmd, timestamp.Zero)
}

// ApplyAt implements protocol.TimestampedApplier: the write is recorded in
// the key's version ring at its decided timestamp (and the command's
// routing epoch), so reads registered at earlier points can still be
// answered exactly.
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
		// Copy: the command buffer may be shared across in-process
		// replicas.
		v := make([]byte, len(cmd.Value))
		copy(v, cmd.Value)
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

// writeLocked makes val the value of cmd's key — e is its entry, nil on the
// first write — records the version and folds the write into the audit
// digests. The first recorded write keeps what it found (an imported or
// recovered value, or absence) as the base every earlier read point falls
// back to; a full ring rolls its oldest version into the base.
func (s *Store) writeLocked(e *entry, cmd command.Command, ts timestamp.Timestamp, val []byte) {
	if e == nil {
		e = &entry{}
		s.keys[cmd.Key] = e
	} else if e.ring == nil {
		e.base = version{val: e.val, present: true}
	}
	if len(e.ring) == versionRing {
		e.base = e.ring[0]
		copy(e.ring, e.ring[1:])
		e.ring = e.ring[:versionRing-1]
	}
	e.ring = append(e.ring, version{epoch: cmd.Epoch, ts: ts, val: val, present: true})
	e.val = val
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

// GetAt reads key as of the read point (epoch, ts): the newest version
// applied under an earlier routing epoch or at/below ts within the same
// epoch. covered=false reports that the point has fallen off the key's
// retention window (the caller retries with a fresh stamp); a key with no
// recorded versions serves its current state (imported, recovered, or
// never written).
func (s *Store) GetAt(key string, epoch uint32, ts timestamp.Timestamp) (val []byte, present, covered bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getAtLocked(key, epoch, ts)
}

func (s *Store) getAtLocked(key string, epoch uint32, ts timestamp.Timestamp) (val []byte, present, covered bool) {
	e := s.keys[key]
	if e == nil || e.ring == nil {
		val, present = e.current()
		return val, present, true
	}
	for i := len(e.ring) - 1; i >= 0; i-- {
		if v := e.ring[i]; v.visibleAt(epoch, ts) {
			return v.val, v.present, true
		}
	}
	// The first-write base carries the zero epoch and timestamp, so it is
	// visible at every read point; an evicted version qualifies by its own
	// stamp.
	if e.base.visibleAt(epoch, ts) {
		return e.base.val, e.base.present, true
	}
	return nil, false, false
}

// SnapshotAt reads several keys at one read point under a single lock
// hold: because writers (including atomic transaction application) mutate
// under the write lock, the returned values are a consistent cut — a
// transaction's writes appear for all of its keys or for none. When the
// point is off some key's retention window (covered=false), hidden is the
// highest stamp among that key's retained versions: a read stamped above
// it is covered again. Those stamps can sit above the key's own group
// clock — a cross-shard transaction's writes carry its merged timestamp —
// so the read layer must push the clock past hidden, not just re-stamp.
func (s *Store) SnapshotAt(keys []string, epoch uint32, ts timestamp.Timestamp) (vals [][]byte, present []bool, hidden timestamp.Timestamp, covered bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vals = make([][]byte, len(keys))
	present = make([]bool, len(keys))
	for i, k := range keys {
		v, p, c := s.getAtLocked(k, epoch, ts)
		if !c {
			e := s.keys[k]
			hidden = e.base.ts
			for _, ver := range e.ring {
				hidden = timestamp.Max(hidden, ver.ts)
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
		c := make([]byte, len(e.val))
		copy(c, e.val)
		out[k] = c
	}
	return out
}

// Import writes a snapshot's entries, copying the values: how recovery
// loads a WAL snapshot's image before replaying the log tail. Importing
// does not count toward Applied (the snapshot carries that count; see
// SetApplied) and records no versions — keys without version history
// serve their current state.
func (s *Store) Import(snap map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range snap {
		c := make([]byte, len(v))
		copy(c, v)
		if e := s.keys[k]; e != nil {
			e.val = c
		} else {
			s.keys[k] = &entry{val: c}
		}
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
