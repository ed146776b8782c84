// Package audit implements continuous cross-replica state auditing: the
// fourth leg of the observability stack, answering the production
// question the other three legs cannot — "are the replicas actually
// identical right now?".
//
// Every replica maintains an incremental, order-insensitive per-group
// digest of its applied state (folded inside internal/kvstore, one XOR
// per write). CAESAR only totally orders CONFLICTING commands within a
// group, so two correct replicas may apply non-conflicting commands of
// one group in different relative orders; an order-insensitive fold makes
// the digests comparable anyway. Each group's quote carries:
//
//   - Frontier: how many writes were folded — the group's apply-stream
//     sequence number at the quote.
//   - IDFold: an XOR fold of each folded command's identity (ID, op,
//     key, input value, routing epoch) — it pins down WHICH multiset of
//     commands was folded.
//   - Digest: an XOR fold of each write's effect (key, written value,
//     version stamp, routing epoch) — it pins down what the commands DID.
//
// Two replicas quoting the same (group, epoch, frontier, idfold) have
// applied the exact same multiset of commands (up to a 2^-64 hash
// collision); if their digests still differ, the same commands produced
// different state — proven divergence, no settling or quiescence
// required. Replicas at the same frontier with different idfolds have
// merely applied different prefixes (a command decided but not yet
// delivered on one of them); that is not comparable and is skipped, which
// is what keeps the auditor free of false positives under live traffic.
//
// The digests are exposed on every surface the other legs already live
// on: caesar_audit_* metric families in the obs registry, /auditz JSON on
// the metrics listener (Handler), WAL snapshots (a restarted node
// re-proves its recovered state), and the cross-node Collector behind
// cmd/caesar-audit.
package audit

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Digest is a 64-bit XOR-fold digest. It marshals as a hex string:
// JSON numbers are IEEE doubles and silently lose bits above 2^53.
type Digest uint64

// String renders the digest as 16 hex digits.
func (d Digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// MarshalJSON implements json.Marshaler (hex string).
func (d Digest) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Digest) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("audit: bad digest %q: %v", s, err)
	}
	*d = Digest(v)
	return nil
}

// GroupState is one consensus group's digest quote, captured atomically
// with every other group's (one store lock hold).
type GroupState struct {
	// Group is the consensus group the writes were attributed to.
	Group int32 `json:"group"`
	// Epoch is the highest routing epoch folded into the group so far.
	Epoch uint32 `json:"epoch"`
	// Frontier counts the writes folded — the group's apply-stream
	// sequence number at this quote. Reads, noops and fences do not fold.
	Frontier uint64 `json:"frontier"`
	// Digest folds each write's effect: (key, written value, version
	// stamp, routing epoch).
	Digest Digest `json:"digest"`
	// IDFold folds each folded command's identity: (ID, op, key, input
	// value, routing epoch). Equal frontiers with equal idfolds mean the
	// exact same multiset of commands was applied.
	IDFold Digest `json:"idfold"`
}

// Stamp is one recorded cut point: the state of a group's digest at a
// well-defined moment of the node's history (a resize fence delivery, a
// WAL snapshot cut). Stamps are operator context for /auditz —
// divergence detection compares live quotes, which need
// no cut alignment thanks to IDFold.
type Stamp struct {
	// Kind labels the cut point: "fence" or "snapshot".
	Kind string `json:"kind"`
	// Seq disambiguates the cut: the store's applied-command count when
	// the stamp was taken.
	Seq uint64 `json:"seq"`
	// Group, Epoch, Frontier, Digest quote the group at the cut.
	Group    int32  `json:"group"`
	Epoch    uint32 `json:"epoch"`
	Frontier uint64 `json:"frontier"`
	Digest   Digest `json:"digest"`
}

// State is a node's full audit state: every group's quote plus the
// recent cut-point stamps. It is the unit persisted into WAL snapshots
// (internal/codec fields, that package's "snapshot" row) and served over
// /auditz (json, inside Report).
type State struct {
	Groups []GroupState `json:"groups"`
	Stamps []Stamp      `json:"stamps,omitempty"`
}

// Group returns the quote for group g, or a zero GroupState.
func (s State) Group(g int32) (GroupState, bool) {
	for _, gs := range s.Groups {
		if gs.Group == g {
			return gs, true
		}
	}
	return GroupState{}, false
}

// Writes returns the total writes folded across all groups.
func (s State) Writes() uint64 {
	var n uint64
	for _, gs := range s.Groups {
		n += gs.Frontier
	}
	return n
}

// Report is one node's /auditz answer: its audit state plus the routing
// context the collector needs to align quotes.
type Report struct {
	// Node names the reporting node.
	Node string `json:"node"`
	// Epoch is the node's currently installed routing epoch.
	Epoch uint32 `json:"epoch"`
	// Resizing reports an epoch transition in flight; quotes taken
	// mid-handoff are still sound (IDFold alignment) but the flag is
	// surfaced for operators.
	Resizing bool `json:"resizing"`
	// Applied is the store's executed-command count at the quote.
	Applied int64 `json:"applied"`
	// State carries the per-group digests and stamps.
	State
	// Err carries a per-node collection failure when assembled by
	// Collect; never set by Handler.
	Err string `json:"err,omitempty"`
}
