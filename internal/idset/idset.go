// Package idset provides an exact set of command IDs in the shape consensus
// engines produce: IDs are (node, sequence) pairs whose per-node sequences
// arrive mostly in order, with the occasional gap — a command that never
// reached this replica, or a restarted proposer that resumes above its
// predecessor's reservation. Per node the set keeps sorted, disjoint,
// non-adjacent runs [lo, hi], so it costs O(nodes + gaps) however many
// members it holds, and an in-order Add extends the node's last run in
// place. Engines use it to remember executed commands forever (duplicate
// suppression across retries, forwarding, recovery and restart); the
// cross-shard commit table (internal/xshard) and the durable log
// (internal/wal) use it for settled transactions, whose IDs have the same
// layout.
package idset

import (
	"math"
	"slices"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// run is the members lo..hi of one node, both ends included.
type run struct{ lo, hi uint64 }

// node is one node's members: at least one run, ascending.
type node struct {
	id   timestamp.NodeID
	runs []run
}

// Set is a run-length set of command IDs. The zero value is an empty set
// ready to use; Len, Runs, Clone and AppendTo read a nil *Set as empty.
// Not safe for concurrent use.
type Set struct {
	// nodes is ascending by ID. A cluster has a handful of nodes, so a scan
	// finds one faster than a map would hash its ID.
	nodes []node
	count int64
}

// New returns an empty set.
func New() *Set { return &Set{} }

// runsOf returns node n's runs, nil when it has no members.
func (s *Set) runsOf(n timestamp.NodeID) []run {
	for i := range s.nodes {
		if s.nodes[i].id == n {
			return s.nodes[i].runs
		}
	}
	return nil
}

// Add inserts id; duplicate adds are no-ops. It reports whether the id was
// new.
func (s *Set) Add(id command.ID) bool {
	i := 0
	for ; i < len(s.nodes) && s.nodes[i].id < id.Node; i++ {
	}
	if i == len(s.nodes) || s.nodes[i].id != id.Node {
		s.nodes = slices.Insert(s.nodes, i, node{id: id.Node, runs: []run{{id.Seq, id.Seq}}})
		s.count++
		return true
	}
	rs := s.nodes[i].runs
	if last := &rs[len(rs)-1]; id.Seq != 0 && id.Seq-1 == last.hi {
		last.hi = id.Seq // in order: nothing moves
		s.count++
		return true
	}
	return s.insert(&s.nodes[i], id.Seq)
}

// insert is Add for a sequence that does not extend its node's last run.
func (s *Set) insert(n *node, seq uint64) bool {
	rs := n.runs
	i := search(rs, seq)
	if i < len(rs) && rs[i].lo <= seq {
		return false
	}
	s.count++
	// rs[i-1] ends below seq and rs[i] starts above it, so neither +1
	// overflows.
	joinsPrev := i > 0 && rs[i-1].hi+1 == seq
	joinsNext := i < len(rs) && seq+1 == rs[i].lo
	switch {
	case joinsPrev && joinsNext:
		rs[i-1].hi = rs[i].hi
		n.runs = slices.Delete(rs, i, i+1)
	case joinsPrev:
		rs[i-1].hi = seq
	case joinsNext:
		rs[i].lo = seq
	default:
		n.runs = slices.Insert(rs, i, run{seq, seq})
	}
	return true
}

// search returns the index of the first run ending at or above seq.
func search(rs []run, seq uint64) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].hi < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Has reports membership. The node's first run is checked before anything
// else — with no gap it is the only one — and the rest binary-searched.
func (s *Set) Has(id command.ID) bool {
	rs := s.runsOf(id.Node)
	if len(rs) == 0 {
		return false
	}
	if id.Seq <= rs[0].hi {
		return id.Seq >= rs[0].lo
	}
	rs = rs[1:]
	i := search(rs, id.Seq)
	return i < len(rs) && rs[i].lo <= id.Seq
}

// Len returns the number of members.
func (s *Set) Len() int64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Runs returns how many runs hold node n's members: the set's footprint,
// in memory and on disk, for that node.
func (s *Set) Runs(n timestamp.NodeID) int {
	if s == nil {
		return 0
	}
	return len(s.runsOf(n))
}

// Clone returns a copy of the set that shares nothing with it; the clone of
// a nil set is empty.
func (s *Set) Clone() *Set {
	c := New()
	if s == nil || len(s.nodes) == 0 {
		return c
	}
	c.nodes = make([]node, len(s.nodes))
	for i, n := range s.nodes {
		c.nodes[i] = node{id: n.id, runs: slices.Clone(n.runs)}
	}
	c.count = s.count
	return c
}

// AppendTo appends the set in internal/codec fields (the "id set" row of
// that package's table): per node, ascending, its runs, each as the gap
// from where the next run may start and its length less one. The durable
// log (internal/wal) persists delivered-command and settled-transaction
// sets in this form — O(nodes + gaps) bytes however many IDs the set
// holds. A nil set appends as empty.
func (s *Set) AppendTo(b []byte) []byte {
	if s == nil {
		return codec.AppendUvarint(b, 0)
	}
	b = codec.AppendUvarint(b, uint64(len(s.nodes)))
	for _, n := range s.nodes {
		b = codec.AppendNode(b, n.id)
		b = codec.AppendUvarint(b, uint64(len(n.runs)))
		var start uint64
		for _, r := range n.runs {
			b = codec.AppendUvarint(b, r.lo-start)
			b = codec.AppendUvarint(b, r.hi-r.lo)
			start = r.hi + 2
		}
	}
	return b
}

// Read decodes a set AppendTo wrote. The layout leaves one encoding per
// set — runs are gaps and lengths, so they cannot overlap, touch or come
// out of order — and Read refuses the rest: nodes not strictly ascending,
// a node with no runs, a run past the last sequence, more members than Len
// can count. Anything else latches r's error.
func Read(r *codec.Reader) *Set {
	s := New()
	// A node and its run count take at least a byte each, its first run two.
	n := r.Count(4)
	if n > 0 {
		s.nodes = make([]node, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		id := r.Node()
		k := r.Count(2) // a run is two uvarints
		if i > 0 && id <= s.nodes[i-1].id || k == 0 {
			r.Fail()
			break
		}
		rs := make([]run, 0, k)
		var start uint64
		for j := 0; j < k && r.Err() == nil; j++ {
			gap, length := r.Uvarint(), r.Uvarint()
			lo := start + gap
			hi := lo + length
			// A wrapped bound, a run with more to come whose successor's
			// start would wrap, or more members than an int64 holds.
			if lo < start || hi < lo || j < k-1 && hi > math.MaxUint64-2 ||
				length >= uint64(math.MaxInt64-s.count) {
				r.Fail()
				break
			}
			rs = append(rs, run{lo, hi})
			s.count += int64(length) + 1
			start = hi + 2
		}
		s.nodes = append(s.nodes, node{id: id, runs: rs})
	}
	if r.Err() != nil {
		return New()
	}
	return s
}
