// Package quorum implements the quorum arithmetic of §III and reusable vote
// trackers for the quorum-gathering phases of the protocols.
//
// For N replicas the paper uses classic quorums of size ⌊N/2⌋+1 and fast
// quorums of size ⌈3N/4⌉. These sizes satisfy the intersection properties
// the correctness proof relies on: any FQ and CQ intersect in at least
// ⌊CQ/2⌋+1 nodes, and any two fast quorums intersect any classic quorum.
package quorum

import (
	"fmt"
	"math/bits"
)

// ClassicSize returns ⌊N/2⌋+1, the classic (majority) quorum size.
func ClassicSize(n int) int {
	return n/2 + 1
}

// FastSize returns ⌈3N/4⌉, the fast quorum size used by CAESAR.
func FastSize(n int) int {
	return (3*n + 3) / 4
}

// RecoveryMajority returns ⌊CQ/2⌋+1 for N replicas: the minimum size of the
// intersection between any classic and any fast quorum, used by the
// whitelist computation in recovery (Fig 5, lines 21–24).
func RecoveryMajority(n int) int {
	return ClassicSize(n)/2 + 1
}

// EPaxosFastSize returns the optimized EPaxos fast-quorum size
// F + ⌊(F+1)/2⌋ (including the command leader), with F = ⌊N/2⌋ the number
// of tolerated failures. For N=5 this is 3, which is the "one node fewer
// than CAESAR" the paper's evaluation mentions.
func EPaxosFastSize(n int) int {
	f := n / 2
	return f + (f+1)/2
}

// MaxNodes is the largest cluster a Tracker can count: a node ID is a bit.
const MaxNodes = 64

// Tracker counts replies from distinct voters toward a target count. It is
// a plain value, not safe for concurrent use; protocol replicas hold one
// per in-flight phase and drive it from their event loop.
type Tracker struct {
	target int
	voted  uint64
}

// NewTracker returns a tracker that completes after target distinct voters.
func NewTracker(target int) Tracker {
	return Tracker{target: target}
}

// Add records a vote from the given voter. It returns true if the vote was
// new (not a duplicate). A voter outside [0, MaxNodes) panics: shifted past
// the word, its vote would vanish and the quorum never form.
func (t *Tracker) Add(voter int32) bool {
	if voter < 0 || voter >= MaxNodes {
		panic(fmt.Sprintf("quorum: voter %d outside [0, %d)", voter, MaxNodes))
	}
	before := t.voted
	t.voted |= 1 << uint(voter)
	return t.voted != before
}

// Has reports whether voter has voted. A voter outside [0, MaxNodes) never
// has: its shift leaves the word.
func (t Tracker) Has(voter int32) bool { return t.voted&(1<<uint(voter)) != 0 }

// Count returns the number of distinct voters seen.
func (t Tracker) Count() int { return bits.OnesCount64(t.voted) }

// Reached reports whether the target has been met.
func (t Tracker) Reached() bool { return t.Count() >= t.target }
