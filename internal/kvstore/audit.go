package kvstore

import (
	"sort"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Applied-state auditing (internal/audit): the store folds every write
// into a per-group pair of order-insensitive 64-bit digests, one XOR per
// write under the already-held apply lock. CAESAR only totally orders
// conflicting commands within a group, so replicas may interleave
// non-conflicting writes differently; XOR-folding per-write hashes makes
// the digests order-insensitive, and the companion idfold (a fold of
// command identities rather than write effects) lets the auditor prove
// when two quotes cover the same command multiset. See internal/audit
// for the comparison rules.

// GroupFn attributes a key written under a routing epoch to its
// consensus group. The attribution must be a pure function of
// (key, epoch) — both are replicated verbatim with the command — so all
// replicas fold a write into the same group regardless of local state.
// Installed by internal/stack (shard.Epochs.GroupOf); nil attributes
// everything to group 0, which single-group deployments rely on.
type GroupFn func(key string, epoch uint32) int32

// groupAudit is one group's running fold state.
type groupAudit struct {
	digest   uint64 // XOR of per-write effect hashes
	idfold   uint64 // XOR of per-command identity hashes
	frontier uint64 // writes folded
	epoch    uint32 // highest routing epoch folded
}

// stampRing bounds the retained cut-point stamps.
const stampRing = 32

// FNV-1a constants, matching internal/shard's inlined router hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func foldByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func foldU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = foldByte(h, byte(v>>(8*i)))
	}
	return h
}

func foldStr(h uint64, s string) uint64 {
	// Length prefix keeps adjacent fields unambiguous.
	h = foldU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = foldByte(h, s[i])
	}
	return h
}

func foldBytes(h uint64, b []byte) uint64 {
	h = foldU64(h, uint64(len(b)))
	for i := 0; i < len(b); i++ {
		h = foldByte(h, b[i])
	}
	return h
}

// SetGroupFn installs the group attribution function. Must be called
// before the store applies or replays any command (internal/stack does
// so before opening the WAL) so live folds and recovery folds attribute
// identically.
func (s *Store) SetGroupFn(fn GroupFn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groupFn = fn
}

// foldLocked folds one write into its group's digests. written is the
// value stored (for OpAdd, the computed result — so corrupted state that
// propagates through a read-modify-write shows up in the digest while
// the idfold, built from the replicated inputs, stays equal across
// replicas and keeps the quotes comparable).
func (s *Store) foldLocked(cmd command.Command, ts timestamp.Timestamp, written []byte) {
	var g int32
	if s.groupFn != nil {
		g = s.groupFn(cmd.Key, cmd.Epoch)
	}
	ga := s.audits[g]
	if ga == nil {
		ga = &groupAudit{}
		s.audits[g] = ga
	}
	// Effect hash: what the write did to the state.
	h := uint64(fnvOffset64)
	h = foldStr(h, cmd.Key)
	h = foldBytes(h, written)
	h = foldU64(h, ts.Seq)
	h = foldU64(h, uint64(uint32(ts.Node)))
	h = foldU64(h, uint64(cmd.Epoch))
	ga.digest ^= h
	// Identity hash: which command was folded.
	h = uint64(fnvOffset64)
	h = foldU64(h, uint64(uint32(cmd.ID.Node)))
	h = foldU64(h, cmd.ID.Seq)
	h = foldByte(h, byte(cmd.Op))
	h = foldStr(h, cmd.Key)
	h = foldBytes(h, cmd.Value)
	h = foldU64(h, uint64(cmd.Epoch))
	ga.idfold ^= h
	ga.frontier++
	if cmd.Epoch > ga.epoch {
		ga.epoch = cmd.Epoch
	}
}

// stampAllLocked records one cut-point stamp per tracked group.
func (s *Store) stampAllLocked(kind string) {
	groups := make([]int32, 0, len(s.audits))
	for g := range s.audits {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, g := range groups {
		ga := s.audits[g]
		s.stamps = append(s.stamps, audit.Stamp{
			Kind: kind, Seq: uint64(s.applied),
			Group: g, Epoch: ga.epoch, Frontier: ga.frontier, Digest: audit.Digest(ga.digest),
		})
	}
	if n := len(s.stamps); n > stampRing {
		copy(s.stamps, s.stamps[n-stampRing:])
		s.stamps = s.stamps[:stampRing]
	}
}

// auditStateLocked snapshots the fold state under the held lock.
func (s *Store) auditStateLocked() audit.State {
	st := audit.State{Groups: make([]audit.GroupState, 0, len(s.audits))}
	for g, ga := range s.audits {
		st.Groups = append(st.Groups, audit.GroupState{
			Group: g, Epoch: ga.epoch, Frontier: ga.frontier,
			Digest: audit.Digest(ga.digest), IDFold: audit.Digest(ga.idfold),
		})
	}
	sort.Slice(st.Groups, func(i, j int) bool { return st.Groups[i].Group < st.Groups[j].Group })
	if len(s.stamps) > 0 {
		st.Stamps = append([]audit.Stamp(nil), s.stamps...)
	}
	return st
}

// AuditGroups returns how many groups have digest folds.
func (s *Store) AuditGroups() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.audits)
}

// AuditWrites returns the total writes folded across all groups.
func (s *Store) AuditWrites() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n uint64
	for _, ga := range s.audits {
		n += ga.frontier
	}
	return n
}

// AuditState returns a consistent snapshot of every group's digest quote
// and the recent cut-point stamps (one lock hold, so all quotes belong
// to the same instant of the apply stream).
func (s *Store) AuditState() audit.State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.auditStateLocked()
}

// AuditSnapshot stamps every group with a "snapshot" cut point and
// returns the resulting state. The WAL calls it inside the snapshot
// window (applies paused), so the returned digests correspond exactly to
// the KV cut persisted next to them.
func (s *Store) AuditSnapshot() audit.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stampAllLocked("snapshot")
	return s.auditStateLocked()
}

// RestoreAudit overwrites the fold state from a recovered snapshot.
// Crash recovery (internal/wal) restores the digests alongside the KV
// cut before replaying the log tail, so the tail's folds continue the
// exact sequence the snapshot captured and a restarted replica re-proves
// its recovered state against live peers.
func (s *Store) RestoreAudit(st audit.State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.audits = make(map[int32]*groupAudit, len(st.Groups))
	for _, gs := range st.Groups {
		s.audits[gs.Group] = &groupAudit{
			digest: uint64(gs.Digest), idfold: uint64(gs.IDFold),
			frontier: gs.Frontier, epoch: gs.Epoch,
		}
	}
	s.stamps = append(s.stamps[:0], st.Stamps...)
}

// InjectDivergence simulates silent single-replica state corruption for
// tests: it flips one bit of the key's stored value and perturbs the
// owning group's digest accordingly — without advancing the frontier or
// idfold, exactly like an apply-path bug that computed the wrong state
// from the right commands. Returns the group whose digest was perturbed.
func (s *Store) InjectDivergence(key string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var epoch uint32
	if e := s.keys[key]; e != nil {
		epoch = e.cur.epoch
		if len(e.cur.val) > 0 {
			e.cur.val[0] ^= 0x80
		}
	}
	var g int32
	if s.groupFn != nil {
		g = s.groupFn(key, epoch)
	}
	ga := s.audits[g]
	if ga == nil {
		ga = &groupAudit{}
		s.audits[g] = ga
	}
	ga.digest ^= 0xdeadbeefcafef00d
	return g
}
