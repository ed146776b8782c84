// Package timestamp implements the logical timestamps used by CAESAR to
// order commands (§V-A of the paper).
//
// A timestamp is a pair ⟨Seq, Node⟩ drawn from a totally ordered set: two
// timestamps compare first by sequence number and then by the identifier of
// the node that generated them. Because the node identifier participates in
// the comparison, no two nodes can ever generate equal timestamps, which the
// protocol relies on to break ties deterministically.
package timestamp

import (
	"fmt"
	"sync"
)

// NodeID identifies a replica in the cluster. Replicas are numbered 0..N-1.
type NodeID int32

// String implements fmt.Stringer.
func (id NodeID) String() string { return fmt.Sprintf("p%d", int32(id)) }

// Timestamp is a logical timestamp ⟨Seq, Node⟩. The zero value is the
// smallest timestamp generated by node 0; Zero (Seq==0) sorts before every
// timestamp a clock can return, since clocks start at Seq 1.
type Timestamp struct {
	Seq  uint64
	Node NodeID
}

// Zero is the timestamp smaller than any clock-generated timestamp.
var Zero = Timestamp{}

// Less reports whether t orders strictly before u, using the total order of
// §V-A: ⟨k1,i⟩ < ⟨k2,j⟩ ⇔ k1 < k2 ∨ (k1 = k2 ∧ i < j).
func (t Timestamp) Less(u Timestamp) bool {
	if t.Seq != u.Seq {
		return t.Seq < u.Seq
	}
	return t.Node < u.Node
}

// Compare returns -1, 0 or +1 as t sorts before, equal to, or after u.
func (t Timestamp) Compare(u Timestamp) int {
	switch {
	case t.Less(u):
		return -1
	case u.Less(t):
		return 1
	default:
		return 0
	}
}

// IsZero reports whether t is the zero timestamp.
func (t Timestamp) IsZero() bool { return t == Zero }

// String implements fmt.Stringer.
func (t Timestamp) String() string { return fmt.Sprintf("⟨%d,%d⟩", t.Seq, t.Node) }

// Max returns the larger of t and u.
func Max(t, u Timestamp) Timestamp {
	if t.Less(u) {
		return u
	}
	return t
}

// Clock is the per-node logical clock TS_i of §V-A. It hands out
// monotonically increasing timestamps tagged with the owning node and
// advances past any timestamp observed from other nodes.
//
// Clock is safe for concurrent use.
type Clock struct {
	mu   sync.Mutex
	node NodeID
	seq  uint64
	// reserved / reserve implement durable issue reservations (crash
	// restart): before the clock issues a sequence beyond reserved, it
	// persists a new watermark through reserve. A restarted clock
	// resuming above the last persisted watermark can never re-issue a
	// timestamp its predecessor used for a still-unfinished command —
	// which would put fresh proposals *below* orphaned ones and deadlock
	// CAESAR's wait condition (waits must ascend in timestamp order).
	reserved uint64
	reserve  func(upto uint64)
}

// NewClock returns a clock for the given node. The first Next() returns
// ⟨1, node⟩.
func NewClock(node NodeID) *Clock {
	return &Clock{node: node}
}

// clockReserveBlock is how many issued sequences one durable clock
// reservation covers.
const clockReserveBlock = 8192

// SetReserve installs the reservation hook and floor: the clock resumes
// at least at floor, and persist runs (synchronously, under the clock's
// lock) before any sequence beyond the current reservation is issued.
func (c *Clock) SetReserve(floor uint64, persist func(upto uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if floor > c.seq {
		c.seq = floor
	}
	c.reserved = floor
	c.reserve = persist
}

// Next advances the clock and returns a fresh timestamp strictly greater
// than every timestamp previously returned or observed.
func (c *Clock) Next() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if c.reserve != nil && c.seq > c.reserved {
		c.reserved = c.seq + clockReserveBlock
		c.reserve(c.reserved)
	}
	return Timestamp{Seq: c.seq, Node: c.node}
}

// Current returns the timestamp the clock would assign next without
// advancing it. It is strictly greater than everything observed so far.
func (c *Clock) Current() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Timestamp{Seq: c.seq + 1, Node: c.node}
}

// Observe advances the clock so that every future timestamp is strictly
// greater than t. Per §V-A: whenever p_i receives a command with timestamp
// T, it updates TS_i with a value greater than T.
func (c *Clock) Observe(t Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Seq > c.seq {
		c.seq = t.Seq
	}
}
