package xshard

// Tests of WaitSettled, the snapshot-read coordination point: a read at
// timestamp T must wait exactly for the held transactions on its keys
// that could still execute at or below T.

import (
	"strings"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// settled registers a settle waiter and returns a poll helper; a nil
// channel is a read that settled at once.
func settled(tb *Table, keys []string, bound uint64) func() bool {
	fired := tb.WaitSettled(keys, ts(bound, 0))
	return func() bool {
		if fired == nil {
			return true
		}
		select {
		case <-fired:
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	}
}

func TestWaitSettledImmediateWithNothingPending(t *testing.T) {
	tb := newTestTable(&recordingExec{})
	if !settled(tb, []string{"a"}, 10)() {
		t.Fatal("empty table must settle immediately")
	}
}

func TestWaitSettledBlocksOnHeldTxBelowBound(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	xid := XID{Node: 1, Seq: 1}
	ops := testOps("a", "b")
	// One piece registered at ts 5: the entry's merged lower bound (5) is
	// below the read point (10), so the transaction could still execute
	// below it.
	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(5, 0), 0, command.ID{})

	done := settled(tb, []string{"a"}, 10)
	if done() {
		t.Fatal("settled with a held transaction below the bound")
	}
	// The second piece completes the transaction; it executes and the
	// read point settles.
	tb.registerPiece(1, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(7, 1), 0, command.ID{})
	if !done() {
		t.Fatal("not settled after the blocking transaction executed")
	}
	if exec.count() != 1 {
		t.Fatalf("executions = %d", exec.count())
	}
}

func TestWaitSettledIgnoresTxAboveBound(t *testing.T) {
	tb := newTestTable(&recordingExec{})
	xid := XID{Node: 1, Seq: 1}
	ops := testOps("a", "b")
	// Merged lower bound 50 > read point 10: the transaction will execute
	// above the read point and is invisible to it.
	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(50, 0), 0, command.ID{})
	if !settled(tb, []string{"a"}, 10)() {
		t.Fatal("blocked on a transaction strictly above the bound")
	}
}

func TestWaitSettledIgnoresOtherKeys(t *testing.T) {
	tb := newTestTable(&recordingExec{})
	xid := XID{Node: 1, Seq: 1}
	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: testOps("x", "y")}, ts(5, 0), 0, command.ID{})
	if !settled(tb, []string{"a"}, 10)() {
		t.Fatal("blocked on a transaction touching different keys")
	}
}

func TestWaitSettledReleasedByAbort(t *testing.T) {
	tb := newTestTable(&recordingExec{})
	xid := XID{Node: 1, Seq: 1}
	ops := testOps("a", "b")
	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(5, 0), 0, command.ID{})
	done := settled(tb, []string{"b"}, 10)
	if done() {
		t.Fatal("settled with a held transaction below the bound")
	}
	tb.registerAbort(1, &Abort{XID: xid})
	if !done() {
		t.Fatal("not settled after the blocking transaction died")
	}
}

// TestWaitSettledReleasedByStop: a read parked behind a held transaction
// is released when the table stops — the transaction failed with
// ErrStopped and can no longer execute below the read point — and a read
// on a stopped table does not park at all.
func TestWaitSettledReleasedByStop(t *testing.T) {
	tb := newTestTable(&recordingExec{})
	xid := XID{Node: 1, Seq: 1}
	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: testOps("a", "b")}, ts(5, 0), 0, command.ID{})
	done := settled(tb, []string{"a"}, 10)
	if done() {
		t.Fatal("settled with a held transaction below the bound")
	}
	tb.stopAndFail()
	if !done() {
		t.Fatal("a parked read was not released when the table stopped")
	}
	if ch := tb.WaitSettled([]string{"a"}, ts(10, 0)); ch != nil {
		t.Fatal("a read on a stopped table parked")
	}
}

func TestWaitSettledRechecksForNewBlockers(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	first := XID{Node: 1, Seq: 1}
	second := XID{Node: 2, Seq: 1}
	ops := testOps("a", "b")
	tb.registerPiece(0, &Piece{XID: first, Groups: []int32{0, 1}, Ops: ops}, ts(5, 0), 0, command.ID{})
	done := settled(tb, []string{"a"}, 10)

	// A second transaction on the key lands below the bound while the
	// waiter is parked; resolving only the first must re-park, not fire.
	tb.registerPiece(0, &Piece{XID: second, Groups: []int32{0, 1}, Ops: ops}, ts(6, 0), 0, command.ID{})
	tb.registerPiece(1, &Piece{XID: first, Groups: []int32{0, 1}, Ops: ops}, ts(7, 1), 0, command.ID{})
	if done() {
		t.Fatal("settled while a newly arrived transaction still blocks the bound")
	}
	tb.registerPiece(1, &Piece{XID: second, Groups: []int32{0, 1}, Ops: ops}, ts(8, 1), 0, command.ID{})
	if !done() {
		t.Fatal("not settled after every blocker resolved")
	}
	if exec.count() != 2 {
		t.Fatalf("executions = %d, want 2", exec.count())
	}
}

// TestExecutedTransactionIsWaitedForUntilItLands: with a durable layer the
// commit table decides a transaction, hands it to ApplyTx and is told
// later that the writes are in the store. In between the transaction is
// settled, but a snapshot read at or above its timestamp and a handoff
// drain of a participant group — registered before or after the decision —
// must both keep waiting; another key's read must not.
func TestExecutedTransactionIsWaitedForUntilItLands(t *testing.T) {
	var land func(error)
	tb := NewTable(TableConfig{Self: 0, Exec: &recordingExec{}, ResolveTimeout: time.Hour,
		ApplyTx: func(_ XID, _ timestamp.Timestamp, _ []command.Command, done func(error)) {
			land = done
		}}, nil)
	xid := XID{Node: 0, Seq: 1}
	ops := testOps("a", "b")
	var res *protocol.Result
	tb.Expect(xid, []int32{0, 1}, ops, 0, func(r protocol.Result) { res = &r })
	piece := &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}
	tb.registerPiece(0, piece, ts(5, 0), 0, command.ID{})

	early := make(chan struct{})
	tb.AwaitGroupDrain(0, 1, func() { close(early) })
	if got := tb.DebugDrainWaiters(); len(got) != 1 || !strings.Contains(got[0], "x0.1(got=1/2)") {
		t.Errorf("drain waiters while the transaction is pending: %q", got)
	}
	tb.registerPiece(1, piece, ts(9, 2), 0, command.ID{})
	if land == nil {
		t.Fatal("a complete transaction was not handed to ApplyTx")
	}

	late := make(chan struct{})
	tb.AwaitGroupDrain(1, 1, func() { close(late) })
	read := settled(tb, []string{"a"}, 20)
	if !settled(tb, []string{"z"}, 20)() {
		t.Error("a read of an unrelated key waited for the landing transaction")
	}
	if !settled(tb, []string{"a"}, 8)() {
		t.Error("a read below the transaction's timestamp waited for it")
	}
	// Every release runs on the goroutine that causes it, so a closed
	// channel is visible at once.
	fired := func(ch chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	if fired(early) || fired(late) || read() {
		t.Errorf("released before the transaction's writes reached the store: drain parked before the decision %v, after it %v",
			fired(early), fired(late))
	}
	if res != nil {
		t.Error("the client was answered before the transaction's writes reached the store")
	}
	if got := tb.DebugDrainWaiters(); len(got) != 2 || !strings.Contains(got[0], "x0.1(settled, landing)") {
		t.Errorf("drain waiters while the transaction lands: %q", got)
	}

	land(nil)
	if !fired(early) || !fired(late) || !read() {
		t.Errorf("still parked after the transaction landed: early drain %v, late drain %v", !fired(early), !fired(late))
	}
	if res == nil || res.Err != nil {
		t.Errorf("client result %v after the transaction landed, want success", res)
	}
}
