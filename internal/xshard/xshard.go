// Package xshard layers an atomic cross-group commit over the sharded
// engine (internal/shard), replacing the ErrCrossShard rejection of
// multi-key commands whose keys span consensus groups.
//
// A cross-shard transaction is split into one participant piece per touched
// group. Each piece is proposed through its group's ordinary consensus
// (CAESAR's leaderless timestamp ordering extends across groups naturally:
// the piece carries the group's keys, so it is totally ordered against all
// conflicting traffic of that group). Delivery of a piece registers the
// group's vote in the node's commit table; once every participating group
// has stabilized and delivered its piece, the node executes the whole
// transaction atomically — all operations as one indivisible unit — at the
// merged (maximum) of the per-group stable timestamps, the same max-merge
// rule Fast Flexible Paxos uses to relax per-round quorums. Because every
// group delivers its piece on every node in the same order, all nodes make
// the same commit decision without any extra round of agreement.
//
// Aborts ride on consensus too: an abort marker conflicts with its group's
// piece, so the group totally orders the two. Marker first kills the
// transaction in that group — and therefore everywhere, deterministically —
// while piece first demotes the marker to a no-op. A transaction whose
// coordinator crashed between piece submissions is finished (all pieces
// exist and every group delivers them, possibly via CAESAR's per-group
// recovery) or aborted (survivors holding any piece time out and propose
// markers to the missing groups) — never half-applied.
//
// Guarantee: per-transaction atomicity at the merged timestamp. Every node
// applies a committed transaction's operations exactly once, as one
// indivisible unit, or not at all. NOT guaranteed: cross-shard strict
// serializability — two concurrent conflicting cross-shard transactions
// may be observed in different relative orders by different nodes when one
// completes before the other becomes locally visible; the commit table
// orders the transactions it holds concurrently by merged timestamp, which
// removes the common races but not all of them. The same relaxation
// applies between a cross-shard transaction and single-group commands on
// its keys: while a transaction is held in the commit table, a single-key
// command its group ordered after the piece is applied immediately (the
// delivery pipeline is never blocked), so it can execute before the
// transaction on one node and after it on another. Keys never touched by
// a cross-shard transaction keep the paper's full per-group guarantees.
// Upgrading the held-transaction window to strict ordering is a ROADMAP
// open item (cross-group dependency agreement, Janus-style).
//
// The merged-timestamp ordering requires groups built on an engine that
// delivers through ApplyAt (CAESAR). Over engines that agree on no
// timestamp and call Apply, every piece registers at timestamp zero: atomicity and the
// abort protocol are unaffected, but concurrently held conflicting
// transactions fall back to deterministic XID order among the ones a node
// holds together, widening the non-serializability window above.
package xshard

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// ErrAborted is reported for cross-shard transactions killed by an abort
// marker (coordinator failure or a participant submission that could not
// be placed).
var ErrAborted = errors.New("xshard: cross-shard transaction aborted")

// ErrEpochRetry is reported for cross-shard transactions killed because a
// participant piece was ordered after its group's resize fence: the piece
// was routed under a routing epoch that is no longer current, so the
// transaction's group partition may be wrong. The kill is deterministic on
// every node (the fence/piece order is fixed by the group's consensus);
// the submitting node's rebalancing layer re-partitions and re-proposes
// the transaction under the new epoch.
var ErrEpochRetry = errors.New("xshard: transaction straddled a resize epoch, retry under the new routing")

// XID identifies a cross-shard transaction: the coordinating node plus a
// local sequence number, mirroring command.ID in a separate space.
type XID struct {
	Node timestamp.NodeID
	Seq  uint64
}

// String implements fmt.Stringer.
func (x XID) String() string { return fmt.Sprintf("x%d.%d", int32(x.Node), x.Seq) }

// Piece is the payload of one group's OpXCommit participant command. Every
// piece carries the full transaction (Groups and Ops are identical across
// the pieces of one XID), so any node holding any piece can reconstruct
// the other participants — the basis of survivor-side resolution.
type Piece struct {
	XID XID
	// Groups lists the participating consensus groups, sorted.
	Groups []int32
	// Ops are the transaction's member commands in execution order.
	Ops []command.Command
}

// Abort is the payload of an OpXAbort marker proposed to one group. The
// marker shares the piece's keys in that group, so consensus totally
// orders marker and piece: whichever is delivered first wins the group.
type Abort struct {
	XID   XID
	Group int32
}

// registerOnce guards the gob registration of the payload types. They are
// encoded as interface values, so every process needs them in the global
// gob registry before it encodes or decodes one; both paths below do that.
// (The bytes are opaque to internal/wire, which carries them as a
// command's Payload.)
var registerOnce sync.Once

func registerGob() {
	registerOnce.Do(func() {
		gob.Register(&Piece{})
		gob.Register(&Abort{})
	})
}

// encodePayload gob-encodes a piece or marker as an interface value.
func encodePayload(v any) ([]byte, error) {
	registerGob()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePayload reverses encodePayload.
func decodePayload(b []byte) (any, error) {
	registerGob()
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodePiece decodes an OpXCommit command's payload.
func DecodePiece(payload []byte) (*Piece, error) {
	v, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	p, ok := v.(*Piece)
	if !ok {
		return nil, fmt.Errorf("xshard: payload holds %T, want *Piece", v)
	}
	return p, nil
}

// DecodeAbort decodes an OpXAbort command's payload.
func DecodeAbort(payload []byte) (*Abort, error) {
	v, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	a, ok := v.(*Abort)
	if !ok {
		return nil, fmt.Errorf("xshard: payload holds %T, want *Abort", v)
	}
	return a, nil
}

// memberOps returns the executable member commands of cmd: the unpacked
// members for a batch, the command itself otherwise.
func memberOps(cmd command.Command) ([]command.Command, error) {
	if cmd.Op == command.OpBatch {
		return batch.Unpack(cmd)
	}
	return []command.Command{cmd}, nil
}

// partition groups a transaction's members by the shard their keys route
// to. A member that itself spans groups is unsupported and rejected with
// the router's ErrCrossShard.
func partition(r shard.Router, ops []command.Command) (map[int][]command.Command, error) {
	parts := make(map[int][]command.Command)
	for _, op := range ops {
		g, err := r.Route(op)
		if err != nil {
			return nil, err
		}
		parts[g] = append(parts[g], op)
	}
	return parts, nil
}

// keyUnion returns the distinct keys of ops, in first-seen order.
func keyUnion(ops []command.Command) []string {
	seen := make(map[string]struct{})
	var keys []string
	for _, op := range ops {
		for _, k := range op.Keys() {
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// withKeys stamps a command with the given key set.
func withKeys(cmd command.Command, keys []string) command.Command {
	if len(keys) > 0 {
		cmd.Key = keys[0]
		cmd.ExtraKeys = keys[1:]
	}
	return cmd
}

// pieceWithPayload stamps one group's participant command from the
// transaction's pre-encoded payload: an OpXCommit keyed by the group's
// share of the key set, so it conflicts exactly with that group's
// affected traffic. The single stamping rule shared by PieceCommand and
// the coordinator's submit loop (which encodes the payload once for all
// groups).
func pieceWithPayload(payload []byte, groupOps []command.Command) command.Command {
	return withKeys(command.Command{Op: command.OpXCommit, Payload: payload}, keyUnion(groupOps))
}

// PieceCommand builds the participant command proposed to one group,
// carrying the full transaction.
func PieceCommand(xid XID, groups []int32, all, groupOps []command.Command) (command.Command, error) {
	payload, err := encodePayload(&Piece{XID: xid, Groups: groups, Ops: all})
	if err != nil {
		return command.Command{}, err
	}
	return pieceWithPayload(payload, groupOps), nil
}

// AbortCommand builds the abort marker proposed to one group, keyed like
// the group's piece so the two are totally ordered by that group.
func AbortCommand(xid XID, group int32, groupOps []command.Command) (command.Command, error) {
	payload, err := encodePayload(&Abort{XID: xid, Group: group})
	if err != nil {
		return command.Command{}, err
	}
	return withKeys(command.Command{Op: command.OpXAbort, Payload: payload}, keyUnion(groupOps)), nil
}
