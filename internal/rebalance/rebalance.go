// Package rebalance changes a live sharded deployment's consensus-group
// count (G → G') with no lost or reordered commands — the "shard
// rebalancing" the Router's Jump Consistent Hash was chosen for: resizing
// moves only the keys whose home actually changes (~1/(G+1) of the
// keyspace per added group).
//
// # Mechanism
//
// Routing is epoch-versioned: every epoch names one shard count
// (shard.NewRouterAt), every submission is stamped with the epoch it was
// routed under, and a resize installs the next epoch. The switch is fenced
// by consensus: a resize marker — an OpFence command, which conflicts with
// every command of its group — is ordered through each existing group, so
// all replicas pass from the old epoch to the new one at the exact same
// point of each group's delivery order. This reuses the trick the paper's
// recovery machinery is built on: a consensus-ordered marker makes a state
// transition deterministic across replicas.
//
// A resize runs in four steps:
//
//  1. Decide. The initiator (Coordinator.Resize) proposes the marker to
//     group 0. Group 0's total order of fences serializes concurrent
//     resizes — the first marker of an epoch wins, later ones for the
//     same epoch are no-ops.
//  2. Fence. The marker is propagated to every other existing group (by
//     the initiator; any replica re-proposes missing fences on timeout,
//     so a crashed initiator cannot wedge the transition — duplicate
//     fences for an installed epoch are no-ops). Delivering the first
//     fence of the new epoch installs it on that replica: the node's
//     routing-epoch history (shard.Epochs) records it, new groups are
//     created (the Mux buffers their early traffic), the proposer-side
//     router switches, and the gate below starts classifying.
//  3. Hand off. No key bytes move — every group of a node applies to the
//     one node-shared store — so the handoff is ordering only: when a
//     source group (one that loses keys) delivers its fence, every replica
//     waits, at that same point of the group's history, for the
//     cross-shard transactions the group ordered before the fence to
//     settle (Table.AwaitGroupDrain) and for any earlier-epoch command it
//     still holds for the group to be applied. Commands that reached a
//     key's new home before the handoff finished are queued — per-key
//     FIFO, without blocking the group's delivery of unrelated traffic —
//     and applied the moment it does.
//  4. Retire. After the transition completes, groups beyond the new count
//     stop and detach (after a grace window for stragglers); their mux
//     slots drop stale-generation traffic and can be revived by a later
//     growth.
//
// Commands routed under the old epoch but ordered after their group's
// fence are skipped deterministically on every replica (the fence/command
// order is fixed by consensus) and re-proposed by their submitting node
// under the new epoch, so nothing is lost and nothing applies twice. A
// cross-shard transaction is epoch-consistent by construction — all of its
// pieces are partitioned and stamped under one router snapshot — and if
// any piece lands after its group's fence the whole transaction is killed
// everywhere (xshard.ErrEpochRetry) and re-proposed under the new routing.
//
// # Guarantees
//
// Preserved through a resize: exactly-once application of every
// acknowledged command on every replica; the per-key total order (the old
// home's order up to its fence, then the new home's order — the same cut
// on every replica); cross-shard atomicity (a transaction straddling the
// marker either commits under one epoch everywhere or aborts everywhere
// and is retried). Not preserved: read-your-stale-read corner cases that
// already exist in the cross-shard window (see internal/xshard) remain;
// a command already accepted into a retiring group's consensus but not
// decided when the grace window closes fails with protocol.ErrStopped
// (outcome reported, never silently dropped — a submission that merely
// raced the shrink and found the group gone, xshard.ErrNoGroup, is
// re-routed automatically by xshard.Engine.Submit); and latency on
// migrating keys stalls for up to one handoff round while their queue
// drains.
package rebalance

import (
	"fmt"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// Marker is the payload of a resize fence: it installs Epoch, whose router
// has Shards groups, replacing the PrevShards-group routing of Epoch-1.
type Marker struct {
	Epoch      uint32
	Shards     int32
	PrevShards int32
}

// String implements fmt.Stringer.
func (m Marker) String() string {
	return fmt.Sprintf("resize{epoch %d: %d→%d shards}", m.Epoch, m.PrevShards, m.Shards)
}

// EncodeMarker serializes a marker for a fence payload: its three fields
// as uvarints, in declaration order (internal/codec's layout table). The
// error is always nil; it stays in the signature with its callers.
func EncodeMarker(m Marker) ([]byte, error) {
	b := make([]byte, 0, 8)
	b = codec.AppendUvarint(b, uint64(m.Epoch))
	b = codec.AppendUvarint(b, uint64(uint32(m.Shards)))
	return codec.AppendUvarint(b, uint64(uint32(m.PrevShards))), nil
}

// DecodeMarker reverses EncodeMarker. A group count outside
// [1, shard.MaxGroups] is malformed: no node could install it, and the
// gate passes a fence it cannot decode down without installing it, on
// every replica alike.
func DecodeMarker(payload []byte) (Marker, error) {
	r := codec.NewReader(payload)
	var m Marker
	m.Epoch = r.Uint32()
	m.Shards = int32(r.Uint32())
	m.PrevShards = int32(r.Uint32())
	if err := r.End(); err != nil {
		return Marker{}, err
	}
	if !shard.ValidGroups(int(m.Shards)) || !shard.ValidGroups(int(m.PrevShards)) {
		return Marker{}, codec.ErrMalformed
	}
	return m, nil
}

// FenceCommand builds the consensus command carrying a resize marker: an
// OpFence, totally ordered against every command of the group it is
// proposed to.
func FenceCommand(m Marker) (command.Command, error) {
	payload, err := EncodeMarker(m)
	if err != nil {
		return command.Command{}, err
	}
	return command.Fence(payload), nil
}
