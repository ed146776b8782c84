// Package idset provides a compact set of command IDs optimised for the
// shape consensus engines produce: IDs are (node, sequence) pairs with
// per-node sequences that are mostly delivered in order, so each node's
// members compress into a watermark ("all sequences ≤ wm present") plus a
// sparse overflow set. Engines use it to remember executed commands forever
// (duplicate suppression across retries, forwarding and recovery) in
// O(nodes + reorder window) space.
package idset

import (
	"maps"
	"slices"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Set is a watermark-compressed set of command IDs. The zero value is not
// usable; call New. Not safe for concurrent use.
type Set struct {
	wm    map[timestamp.NodeID]uint64
	above map[timestamp.NodeID]map[uint64]struct{}
	count int64
}

// New returns an empty set.
func New() *Set {
	return &Set{
		wm:    make(map[timestamp.NodeID]uint64),
		above: make(map[timestamp.NodeID]map[uint64]struct{}),
	}
}

// Add inserts id; duplicate adds are no-ops. It reports whether the id was
// new.
func (s *Set) Add(id command.ID) bool {
	if s.Has(id) {
		return false
	}
	s.count++
	wm := s.wm[id.Node]
	if id.Seq != wm+1 {
		over := s.above[id.Node]
		if over == nil {
			over = make(map[uint64]struct{})
			s.above[id.Node] = over
		}
		over[id.Seq] = struct{}{}
		return true
	}
	// Extend the watermark, absorbing any contiguous run above it.
	wm++
	over := s.above[id.Node]
	for {
		if _, ok := over[wm+1]; !ok {
			break
		}
		delete(over, wm+1)
		wm++
	}
	s.wm[id.Node] = wm
	return true
}

// Has reports membership.
func (s *Set) Has(id command.ID) bool {
	if id.Seq <= s.wm[id.Node] {
		return true
	}
	_, ok := s.above[id.Node][id.Seq]
	return ok
}

// Len returns the number of members.
func (s *Set) Len() int64 { return s.count }

// Clone returns a copy of the set that shares nothing with it.
func (s *Set) Clone() *Set {
	c := &Set{wm: maps.Clone(s.wm), above: maps.Clone(s.above), count: s.count}
	for n, over := range c.above {
		c.above[n] = maps.Clone(over)
	}
	return c
}

// AppendTo appends the set in internal/codec fields: per node, ascending,
// its watermark and the sequences above it, ascending (the "delivered set"
// row of that package's table). The durable log (internal/wal) persists
// delivered-command sets in this form — O(nodes + reorder window) bytes no
// matter how many commands the set holds.
func (s *Set) AppendTo(b []byte) []byte {
	nodes := make([]timestamp.NodeID, 0, len(s.wm)+len(s.above))
	for n := range s.wm {
		nodes = append(nodes, n)
	}
	for n, over := range s.above {
		if _, ok := s.wm[n]; !ok && len(over) > 0 {
			nodes = append(nodes, n)
		}
	}
	slices.Sort(nodes)
	b = codec.AppendUvarint(b, uint64(len(nodes)))
	var seqs []uint64
	for _, n := range nodes {
		seqs = seqs[:0]
		for seq := range s.above[n] {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		b = codec.AppendNode(b, n)
		b = codec.AppendUvarint(b, s.wm[n])
		b = codec.AppendUvarint(b, uint64(len(seqs)))
		for _, seq := range seqs {
			b = codec.AppendUvarint(b, seq)
		}
	}
	return b
}

// Read decodes a set AppendTo wrote. Only the form AppendTo produces is
// accepted — nodes strictly ascending, each with members, every sequence
// above its watermark's successor and strictly ascending — so Len, which
// is recomputed here, counts every member once; anything else latches
// r's error.
func Read(r *codec.Reader) *Set {
	s := New()
	var prev timestamp.NodeID
	// A node, its watermark and its count take at least a byte each.
	for i, n := 0, r.Count(3); i < n && r.Err() == nil; i++ {
		node, wm, k := r.Node(), r.Uvarint(), r.Count(1)
		if i > 0 && node <= prev || wm == 0 && k == 0 {
			r.Fail()
		}
		prev = node
		if wm > 0 {
			s.wm[node] = wm
		}
		if k > 0 {
			over := make(map[uint64]struct{}, k)
			last := wm + 1
			for j := 0; j < k; j++ {
				seq := r.Uvarint()
				if seq <= last {
					r.Fail()
				}
				over[seq], last = struct{}{}, seq
			}
			s.above[node] = over
		}
		s.count += int64(wm) + int64(k)
	}
	return s
}
