package xshard

import (
	"slices"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// The commit table decodes a transaction's body once per node: the
// coordinator's entry keeps the payload it encoded, a survivor's the first
// piece it decoded, and a piece carrying the same bytes is matched by its
// header alone. A payload whose header reads but whose body does not
// decode tells the two paths apart: decoded, it is dropped; matched by its
// bytes, it registers.

// twoGroupTx is one transaction across groups 0 and 3 as its groups
// deliver it: the payload its coordinator encoded once and the piece each
// group orders.
type twoGroupTx struct {
	xid     XID
	groups  []int32
	ops     []command.Command
	payload []byte
	pieces  [2]command.Command
}

// twoGroupTxs builds n such transactions of one coordinator, each the
// two-put transaction lan3-mixed4g issues, with XIDs and piece IDs 1 up.
func twoGroupTxs(n int, coordinator timestamp.NodeID) []twoGroupTx {
	_, groups, ops := twoPutTx()
	txs := make([]twoGroupTx, n)
	for i := range txs {
		xid := XID{Node: coordinator, Seq: uint64(i + 1)}
		tx := twoGroupTx{xid: xid, groups: groups, ops: ops, payload: encodePiece(xid, groups, ops)}
		for j := range tx.pieces {
			tx.pieces[j] = pieceCommand(tx.payload, command.KeyUnion(ops[j:j+1]))
			tx.pieces[j].ID = command.ID{Node: coordinator, Seq: uint64(2*i + j + 1)}
		}
		txs[i] = tx
	}
	return txs
}

// deliver hands the transaction's pieces to the appliers of groups 0 and
// 3, both stable at seq.
func (tx *twoGroupTx) deliver(apps [2]protocol.TimestampedApplier, seq uint64) {
	apps[0].ApplyAt(tx.pieces[0], ts(seq, 0))
	apps[1].ApplyAt(tx.pieces[1], ts(seq, 3))
}

// countingExec is a node state machine that allocates once per executed
// transaction, as the store's result slice does.
type countingExec struct{ n int }

func (c *countingExec) ApplyAt(command.Command, timestamp.Timestamp) []byte { return nil }

func (c *countingExec) ApplyAllAt(cmds []command.Command, _ timestamp.Timestamp) [][]byte {
	c.n++
	return make([][]byte, len(cmds))
}

// undecodable returns a copy of a piece's payload whose header still
// reads but whose body no longer decodes.
func undecodable(t *testing.T, payload []byte) []byte {
	t.Helper()
	bad := slices.Clone(payload[:len(payload)-1])
	if _, err := PieceXID(bad); err != nil {
		t.Fatalf("the header of the truncated payload does not read: %v", err)
	}
	if _, err := DecodePiece(bad); err == nil {
		t.Fatal("the truncated payload still decodes")
	}
	return bad
}

// TestBodyDecodedForPieceWithOtherBytes: a piece whose payload differs
// from the one the entry was filled from is decoded — dropped when it is
// malformed, registered when it decodes — and the transaction runs the
// body the entry was filled with.
func TestBodyDecodedForPieceWithOtherBytes(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	xid, groups, ops := twoPutTx()
	tb.registerPiece(0, xid, encodePiece(xid, groups, ops), ts(5, 0), 0, command.ID{})

	tb.registerPiece(3, xid, undecodable(t, encodePiece(xid, groups, ops)), ts(6, 3), 0, command.ID{})
	if exec.count() != 0 || tb.Pending() != 1 {
		t.Fatalf("a malformed second piece registered: %d executions, %d pending", exec.count(), tb.Pending())
	}

	other := slices.Clone(ops)
	other[1] = command.Put(other[1].Key, []byte("other bytes"))
	tb.registerPiece(3, xid, encodePiece(xid, groups, other), ts(7, 3), 0, command.ID{})
	if exec.count() != 1 {
		t.Fatalf("a well-formed second piece with other bytes left %d executions, want 1", exec.count())
	}
	if got := exec.calls[0]; !slices.EqualFunc(got, ops, commandsEqual) {
		t.Fatalf("executed %v, want the body the entry was filled with, %v", got, ops)
	}
	if exec.lastTS != ts(7, 3) {
		t.Fatalf("executed at %v, want %v", exec.lastTS, ts(7, 3))
	}
}

// TestBodyNotDecodedForCoordinatorPieces: on the coordinator, Expect
// keeps the payload it encoded, and the pieces that carry those bytes
// register without a decode. Here that payload's body does not decode,
// so a decode would drop both pieces.
func TestBodyNotDecodedForCoordinatorPieces(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	tx := twoGroupTxs(1, 0)[0]
	payload := undecodable(t, tx.payload)
	for i := range tx.pieces {
		tx.pieces[i].Payload = payload
	}
	var res *protocol.Result
	tb.Expect(tx.xid, tx.groups, tx.ops, payload, 0, func(r protocol.Result) { res = &r })
	tx.deliver([2]protocol.TimestampedApplier{tb.Applier(0, exec), tb.Applier(3, exec)}, 9)
	if exec.count() != 1 || res == nil || res.Err != nil {
		t.Fatalf("the coordinator's own pieces did not commit: %d executions, done %v", exec.count(), res)
	}
	if got := exec.calls[0]; !slices.EqualFunc(got, tx.ops, commandsEqual) {
		t.Fatalf("executed %v, want Expect's ops %v", got, tx.ops)
	}
}

// TestBodyDecodedForSeededEntry: an entry a restart seeded keeps no
// payload, so its first late piece is decoded — a malformed one is
// dropped — and a well-formed one completes the transaction.
func TestBodyDecodedForSeededEntry(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	xid, groups, ops := twoPutTx()
	tb.SeedPending(xid, groups, ops, 0, []int32{0}, ts(5, 0))
	payload := encodePiece(xid, groups, ops)

	tb.registerPiece(3, xid, undecodable(t, payload), ts(6, 3), 0, command.ID{})
	if exec.count() != 0 || tb.Pending() != 1 {
		t.Fatalf("a malformed late piece registered on a seeded entry: %d executions, %d pending", exec.count(), tb.Pending())
	}
	tb.registerPiece(3, xid, payload, ts(7, 3), 0, command.ID{})
	if exec.count() != 1 || tb.Pending() != 0 {
		t.Fatalf("the late piece did not complete the seeded entry: %d executions, %d pending", exec.count(), tb.Pending())
	}
}

// commandsEqual compares two member commands field by field.
func commandsEqual(a, b command.Command) bool {
	return a.ID == b.ID && a.Op == b.Op && a.Key == b.Key && string(a.Value) == string(b.Value) &&
		slices.Equal(a.ExtraKeys, b.ExtraKeys) && string(a.Payload) == string(b.Payload) && a.Epoch == b.Epoch
}
