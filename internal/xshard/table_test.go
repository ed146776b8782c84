package xshard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// recordingExec is a fake node state machine logging ApplyAllAt
// invocations (one per executed transaction) and the stamp of the last.
type recordingExec struct {
	mu     sync.Mutex
	calls  [][]command.Command
	lastTS timestamp.Timestamp
}

func (r *recordingExec) Apply(cmd command.Command) []byte {
	return r.ApplyAt(cmd, timestamp.Zero)
}

func (r *recordingExec) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	r.ApplyAllAt([]command.Command{cmd}, ts)
	return nil
}

func (r *recordingExec) ApplyAllAt(cmds []command.Command, ts timestamp.Timestamp) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, cmds)
	r.lastTS = ts
	return make([][]byte, len(cmds))
}

func (r *recordingExec) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.calls)
}

func ts(seq uint64, node int32) timestamp.Timestamp {
	return timestamp.Timestamp{Seq: seq, Node: timestamp.NodeID(node)}
}

func testOps(keys ...string) []command.Command {
	ops := make([]command.Command, len(keys))
	for i, k := range keys {
		ops[i] = command.Put(k, []byte("v"))
	}
	return ops
}

func newTestTable(exec protocol.TimestampedAtomicApplier) *Table {
	return NewTable(TableConfig{Self: 0, Exec: exec, ResolveTimeout: time.Hour}, nil)
}

func TestTableExecutesWhenAllPiecesRegistered(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	xid := XID{Node: 0, Seq: 1}
	ops := testOps("a", "b")
	var res *protocol.Result
	tb.Expect(xid, []int32{0, 1}, ops, 0, func(r protocol.Result) { res = &r })

	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(5, 0), 0, command.ID{})
	if exec.count() != 0 {
		t.Fatal("executed before all groups registered")
	}
	if res != nil {
		t.Fatal("done fired early")
	}
	tb.registerPiece(1, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(9, 2), 0, command.ID{})
	if exec.count() != 1 || len(exec.calls[0]) != 2 {
		t.Fatalf("expected one atomic execution of 2 ops, got %v", exec.calls)
	}
	if exec.lastTS != ts(9, 2) {
		t.Fatalf("executed at %v, want the merged (max) piece timestamp %v", exec.lastTS, ts(9, 2))
	}
	if res == nil || res.Err != nil {
		t.Fatalf("done = %v, want success", res)
	}
	if tb.Pending() != 0 {
		t.Fatalf("Pending() = %d after commit, want 0", tb.Pending())
	}
}

func TestTableMarkerAfterPieceIsNoOp(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	xid := XID{Node: 1, Seq: 7}
	ops := testOps("a", "b")

	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(5, 0), 0, command.ID{})
	// The marker lost the race in group 0 (its piece was delivered first):
	// it must not kill the transaction.
	tb.registerAbort(0, &Abort{XID: xid, Group: 0})
	tb.registerPiece(1, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(6, 1), 0, command.ID{})
	if exec.count() != 1 {
		t.Fatalf("transaction executed %d times, want 1 (marker lost the race)", exec.count())
	}
}

func TestTableMarkerBeforePieceKills(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	xid := XID{Node: 1, Seq: 8}
	ops := testOps("a", "b")
	var got error
	gotSet := false
	tb.Expect(xid, []int32{0, 1}, ops, 0, func(r protocol.Result) { got, gotSet = r.Err, true })

	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(5, 0), 0, command.ID{})
	// Group 1 delivered the marker before its piece: dead everywhere.
	tb.registerAbort(1, &Abort{XID: xid, Group: 1})
	if !gotSet || !errors.Is(got, ErrAborted) {
		t.Fatalf("done = %v (set=%v), want ErrAborted", got, gotSet)
	}
	// The late piece must be dropped, not resurrect the transaction.
	tb.registerPiece(1, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(9, 1), 0, command.ID{})
	if exec.count() != 0 {
		t.Fatalf("dead transaction executed %d times, want 0", exec.count())
	}
	if tb.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0 (dead tombstone only)", tb.Pending())
	}
}

func TestTableOrdersConflictingTransactionsByMergedTimestamp(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	// X1 and X2 conflict on key "shared". X2 completes first but X1's
	// merged-timestamp lower bound is below X2's final timestamp, so X2
	// must defer until X1 completes, then both run in merged order.
	x1, x2 := XID{Node: 0, Seq: 1}, XID{Node: 1, Seq: 1}
	ops1 := testOps("shared", "x1-only")
	ops2 := testOps("shared", "x2-only")

	tb.registerPiece(0, &Piece{XID: x1, Groups: []int32{0, 1}, Ops: ops1}, ts(2, 0), 0, command.ID{})
	tb.registerPiece(0, &Piece{XID: x2, Groups: []int32{0, 1}, Ops: ops2}, ts(3, 0), 0, command.ID{})
	tb.registerPiece(1, &Piece{XID: x2, Groups: []int32{0, 1}, Ops: ops2}, ts(10, 1), 0, command.ID{})
	if exec.count() != 0 {
		t.Fatal("X2 executed while conflicting X1 could still merge below it")
	}
	// X1 completes at merged ⟨20,1⟩ > X2's ⟨10,1⟩: X2 runs first, then X1.
	tb.registerPiece(1, &Piece{XID: x1, Groups: []int32{0, 1}, Ops: ops1}, ts(20, 1), 0, command.ID{})
	if exec.count() != 2 {
		t.Fatalf("executed %d transactions, want 2", exec.count())
	}
	if exec.calls[0][1].Key != "x2-only" || exec.calls[1][1].Key != "x1-only" {
		t.Fatalf("execution order diverged from merged timestamps: %v then %v",
			exec.calls[0][1].Key, exec.calls[1][1].Key)
	}
}

func TestTableNonConflictingCompletionsDoNotBlock(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	x1, x2 := XID{Node: 0, Seq: 1}, XID{Node: 1, Seq: 1}
	ops1 := testOps("a1", "b1")
	ops2 := testOps("a2", "b2")

	tb.registerPiece(0, &Piece{XID: x1, Groups: []int32{0, 1}, Ops: ops1}, ts(2, 0), 0, command.ID{})
	tb.registerPiece(0, &Piece{XID: x2, Groups: []int32{0, 1}, Ops: ops2}, ts(3, 0), 0, command.ID{})
	tb.registerPiece(1, &Piece{XID: x2, Groups: []int32{0, 1}, Ops: ops2}, ts(10, 1), 0, command.ID{})
	if exec.count() != 1 {
		t.Fatalf("disjoint X2 executed %d times, want 1 (no spurious deferral)", exec.count())
	}
}

func TestTableBlockingIsTransitive(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	// O {b} is incomplete with lower bound ⟨3,0⟩; E1 {a,b} is complete at
	// merged ⟨5,1⟩ and defers behind O; E2 {a,c} is complete at merged
	// ⟨7,1⟩ and does not conflict with O — but it conflicts with the
	// deferred E1, so it must defer too, or a replica where O completed
	// earlier would execute E1 before E2 while this one does the reverse.
	o := XID{Node: 0, Seq: 1}
	e1 := XID{Node: 1, Seq: 1}
	e2 := XID{Node: 2, Seq: 1}
	opsO := testOps("b", "o-only")
	ops1 := testOps("a", "b")
	ops2 := testOps("a", "c")

	tb.registerPiece(0, &Piece{XID: o, Groups: []int32{0, 1}, Ops: opsO}, ts(3, 0), 0, command.ID{})
	tb.registerPiece(0, &Piece{XID: e1, Groups: []int32{0, 1}, Ops: ops1}, ts(4, 0), 0, command.ID{})
	tb.registerPiece(1, &Piece{XID: e1, Groups: []int32{0, 1}, Ops: ops1}, ts(5, 1), 0, command.ID{})
	tb.registerPiece(0, &Piece{XID: e2, Groups: []int32{0, 1}, Ops: ops2}, ts(6, 0), 0, command.ID{})
	tb.registerPiece(1, &Piece{XID: e2, Groups: []int32{0, 1}, Ops: ops2}, ts(7, 1), 0, command.ID{})
	if exec.count() != 0 {
		t.Fatalf("executed %d transactions while O could still merge below both, want 0", exec.count())
	}
	// O completes above everyone: the whole chain drains in merged order.
	tb.registerPiece(1, &Piece{XID: o, Groups: []int32{0, 1}, Ops: opsO}, ts(9, 1), 0, command.ID{})
	if exec.count() != 3 {
		t.Fatalf("executed %d transactions after O completed, want 3", exec.count())
	}
	order := []string{exec.calls[0][1].Key, exec.calls[1][1].Key, exec.calls[2][1].Key}
	want := []string{"b", "c", "o-only"} // E1⟨5,1⟩, E2⟨7,1⟩, O⟨9,1⟩
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want E1,E2,O (merged-timestamp order)", order)
		}
	}
}
