// Package xshard is every node's submission engine: it routes every
// command to its consensus group (internal/shard's Router, over one Mux)
// and commits a multi-key command whose keys span groups atomically,
// instead of rejecting it with shard.ErrCrossShard.
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
// Every piece carries the same payload bytes, encoded once by the
// coordinator. A delivery reads only the payload's header (PieceXID); the
// commit table decodes the body when its entry has none, so a node decodes
// a transaction once, and its coordinator, whose entry keeps the payload
// it encoded, not at all.
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
// orders the transactions it holds concurrently by routing epoch, then
// merged timestamp, which removes the common races but not all of them.
// (Epoch first because the groups of different epochs keep independent
// clocks: a group a resize created starts near zero. internal/rebalance
// holds each epoch's pieces behind its groups' fences so that an earlier
// epoch's transaction is always visible before a later one on a key they
// share can complete.) The same relaxation applies between a cross-shard
// transaction and single-group commands on its keys: while a transaction
// is held in the commit table, a single-key
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
	"errors"
	"fmt"
	"slices"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/codec"
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
// the submitting node's Engine.Submit re-partitions and re-proposes the
// transaction under the new epoch.
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
// the other participants — the basis of survivor-side resolution. Its
// bytes are kindPiece, the XID, the counted groups, the counted commands.
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
// Its bytes are kindAbort, the XID and the group.
type Abort struct {
	XID   XID
	Group int32
}

// A payload's first byte is its kind, so a piece handed to DecodeAbort (or
// the reverse) is refused instead of misread. The rest is internal/codec
// fields, laid out by hand like a wire frame or a WAL record (the table in
// that package's comment): nothing is registered, self-described or
// negotiated, so the replicas of a cluster and the data dirs they restart
// from must come from one build. internal/wire carries the bytes opaquely,
// as a command's Payload; the WAL persists them inside command records,
// which is why changing a layout bumps wal's segment magic.
const (
	kindPiece byte = 1
	kindAbort byte = 2
)

// appendHeader starts a payload: its kind and the transaction it is about.
func appendHeader(b []byte, kind byte, xid XID) []byte {
	b = append(b, kind)
	b = codec.AppendNode(b, xid.Node)
	return codec.AppendUvarint(b, xid.Seq)
}

// readHeader opens a payload that must be of the given kind and reads its
// XID; the rest is read from r, whose Err also covers the XID.
func readHeader(payload []byte, kind byte) (r codec.Reader, xid XID, err error) {
	if len(payload) == 0 {
		return r, xid, codec.ErrMalformed
	}
	if payload[0] != kind {
		return r, xid, fmt.Errorf("xshard: payload of kind %d, want kind %d", payload[0], kind)
	}
	r = codec.NewReader(payload[1:])
	xid.Node = r.Node()
	xid.Seq = r.Uvarint()
	return r, xid, nil
}

// encodePiece lays out a piece's payload. A two-put transaction takes
// about 70 bytes, so the common piece is one allocation.
func encodePiece(xid XID, groups []int32, ops []command.Command) []byte {
	b := appendHeader(make([]byte, 0, 128), kindPiece, xid)
	b = codec.AppendUvarint(b, uint64(len(groups)))
	for _, g := range groups {
		b = codec.AppendUvarint(b, uint64(uint32(g)))
	}
	return codec.AppendCommands(b, ops)
}

// DecodePiece decodes an OpXCommit command's payload. The piece aliases
// nothing of payload.
func DecodePiece(payload []byte) (*Piece, error) {
	xid, groups, ops, err := decodePiece(payload)
	if err != nil {
		return nil, err
	}
	return &Piece{XID: xid, Groups: groups, Ops: ops}, nil
}

// decodePiece is DecodePiece without the Piece: the commit table fills
// its entry from the parts.
func decodePiece(payload []byte) (xid XID, groups []int32, ops []command.Command, err error) {
	r, xid, err := readHeader(payload, kindPiece)
	if err != nil {
		return xid, nil, nil, err
	}
	if n := r.Count(1); n > 0 { // a group is at least one uvarint byte
		groups = make([]int32, n)
		for i := range groups {
			groups[i] = int32(r.Uint32())
		}
	}
	ops = r.Commands()
	if err := r.End(); err != nil {
		return xid, nil, nil, err
	}
	return xid, groups, ops, nil
}

// PieceXID reads the transaction an OpXCommit payload belongs to without
// decoding the rest, allocating nothing: what a delivery needs to find
// its table entry, and all the rebalance gate needs of a stale piece. A
// payload whose header reads cleanly may still fail DecodePiece.
func PieceXID(payload []byte) (XID, error) {
	r, xid, err := readHeader(payload, kindPiece)
	if err == nil {
		err = r.Err()
	}
	return xid, err
}

// DecodeAbort decodes an OpXAbort command's payload.
func DecodeAbort(payload []byte) (*Abort, error) {
	r, xid, err := readHeader(payload, kindAbort)
	if err != nil {
		return nil, err
	}
	group := int32(r.Uint32())
	if err := r.End(); err != nil {
		return nil, err
	}
	return &Abort{XID: xid, Group: group}, nil
}

// memberOps returns the executable member commands of cmd: the unpacked
// members for a batch, the command itself otherwise.
func memberOps(cmd command.Command) ([]command.Command, error) {
	if cmd.Op == command.OpBatch {
		return batch.Unpack(cmd)
	}
	return []command.Command{cmd}, nil
}

// partition returns the groups a transaction's members route to, sorted
// and distinct. A member that itself spans groups is unsupported and
// rejected with the router's ErrCrossShard.
func partition(r shard.Router, ops []command.Command) ([]int32, error) {
	groups := make([]int32, 0, min(len(ops), 4)) // a handful, in one allocation
	for _, op := range ops {
		g, ok := r.Home(op)
		if !ok {
			_, err := r.Route(op)
			return nil, err
		}
		if !slices.Contains(groups, int32(g)) {
			groups = append(groups, int32(g))
		}
	}
	slices.Sort(groups)
	return groups, nil
}

// groupKeys returns the distinct keys, in first-seen order, of the members
// that route to group g: one group's share of the transaction's key set,
// which its piece and its abort marker are keyed by, so they conflict
// exactly with that group's affected traffic.
func groupKeys(r shard.Router, ops []command.Command, g int32) []string {
	var keys []string
	for _, op := range ops {
		if h, ok := r.Home(op); !ok || int32(h) != g {
			continue
		}
		for _, k := range op.Keys() {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// PieceCommand builds the participant command proposed to one group,
// carrying the full transaction and keyed by the group's members. The
// error is always nil (the encoding cannot fail); it stays in the
// signature with its callers.
func PieceCommand(xid XID, groups []int32, all, groupOps []command.Command) (command.Command, error) {
	return pieceCommand(encodePiece(xid, groups, all), command.KeyUnion(groupOps)), nil
}

// pieceCommand stamps one group's participant command from the
// transaction's encoded payload, which the coordinator encodes once for
// every group: only the keys differ between pieces.
func pieceCommand(payload []byte, keys []string) command.Command {
	return command.Command{Op: command.OpXCommit, Payload: payload}.WithKeys(keys)
}

// AbortCommand builds the abort marker proposed to one group, keyed like
// the group's piece so the two are totally ordered by that group. The
// error is always nil, as PieceCommand's.
func AbortCommand(xid XID, group int32, groupOps []command.Command) (command.Command, error) {
	return abortCommand(xid, group, command.KeyUnion(groupOps)), nil
}

// abortCommand is AbortCommand over the group's key set.
func abortCommand(xid XID, group int32, keys []string) command.Command {
	payload := appendHeader(make([]byte, 0, 16), kindAbort, xid)
	payload = codec.AppendUvarint(payload, uint64(uint32(group)))
	return command.Command{Op: command.OpXAbort, Payload: payload}.WithKeys(keys)
}
