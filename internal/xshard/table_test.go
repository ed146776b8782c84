package xshard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/metrics"
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
		t.Fatalf("Pending() = %d, want 0 (settled dead)", tb.Pending())
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

// TestTableRunsEarlierEpochFirst: merged timestamps of different routing
// epochs do not compare — a group a resize created starts its clock near
// zero — so conflicting transactions run epoch first. The stamps are a
// resize's: O was ordered in old groups 0 and 1, N in group 1 and the new
// group 5.
func TestTableRunsEarlierEpochFirst(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	o, n := XID{Node: 2, Seq: 20}, XID{Node: 1, Seq: 21}
	opsO := testOps("shared", "o-only")
	opsN := testOps("shared", "n-only")
	pieceO := &Piece{XID: o, Groups: []int32{0, 1}, Ops: opsO}
	pieceN := &Piece{XID: n, Groups: []int32{1, 5}, Ops: opsN}

	tb.registerPiece(0, pieceO, ts(23709, 2), 0, command.ID{})
	tb.registerPiece(5, pieceN, ts(3, 1), 1, command.ID{})
	tb.registerPiece(1, pieceN, ts(58, 1), 1, command.ID{})
	if exec.count() != 0 {
		t.Fatal("the later epoch's transaction ran while an earlier epoch's was incomplete")
	}
	tb.registerPiece(1, pieceO, ts(55, 2), 0, command.ID{})
	if exec.count() != 2 {
		t.Fatalf("executed %d transactions, want 2", exec.count())
	}
	if exec.calls[0][1].Key != "o-only" || exec.calls[1][1].Key != "n-only" {
		t.Fatalf("ran %v then %v, want epoch 0's O first despite its higher merged stamp",
			exec.calls[0][1].Key, exec.calls[1][1].Key)
	}

	// The other way round: a later epoch's incomplete transaction, however
	// low its bound, never holds back an earlier epoch's.
	o2, n2 := XID{Node: 2, Seq: 22}, XID{Node: 1, Seq: 23}
	tb.registerPiece(5, &Piece{XID: n2, Groups: []int32{1, 5}, Ops: opsN}, ts(4, 1), 1, command.ID{})
	pieceO2 := &Piece{XID: o2, Groups: []int32{0, 1}, Ops: opsO}
	tb.registerPiece(0, pieceO2, ts(23710, 2), 0, command.ID{})
	tb.registerPiece(1, pieceO2, ts(56, 2), 0, command.ID{})
	if exec.count() != 3 {
		t.Fatalf("epoch 0's transaction waited behind epoch 1's: %d executions, want 3", exec.count())
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

// TestLateAbortMarkerIsIgnored: a transaction executes, the clock passes
// four resolve timeouts, a resolution sweep runs, and then an abort marker
// for the transaction arrives. It must find the transaction
// settled: no entry is created, nothing is killed, no abort is counted.
func TestLateAbortMarkerIsIgnored(t *testing.T) {
	now := time.Unix(1000, 0)
	met := metrics.NewRecorder()
	tb := NewTable(TableConfig{Self: 0, Exec: &recordingExec{}, ResolveTimeout: time.Second,
		Metrics: met, Now: func() time.Time { return now }}, nil)
	xid := XID{Node: 1, Seq: 3}
	piece := &Piece{XID: xid, Groups: []int32{0, 1}, Ops: testOps("a", "b")}
	tb.registerPiece(0, piece, ts(5, 0), 0, command.ID{})
	tb.registerPiece(1, piece, ts(6, 1), 0, command.ID{})
	if got := met.CrossShardCommits.Load(); got != 1 {
		t.Fatalf("%d commits, want 1", got)
	}
	now = now.Add(4*time.Second + time.Millisecond)
	tb.Resolve()
	tb.registerAbort(1, &Abort{XID: xid, Group: 1})
	if n := len(tb.entries); n != 0 {
		t.Fatalf("the late marker left %d entries", n)
	}
	if got := met.CrossShardAborts.Load(); got != 0 {
		t.Fatalf("the late marker counted %d aborts of a transaction that committed", got)
	}
}

// TestSettledIsNoOp: once settled, a transaction ignores every late input
// — a piece, a marker, a stale kill, an Expect — whether it executed or
// died.
func TestSettledIsNoOp(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	ops := testOps("a", "b")
	done, dead := XID{Node: 1, Seq: 1}, XID{Node: 1, Seq: 2}
	for _, g := range []int32{0, 1} {
		tb.registerPiece(g, &Piece{XID: done, Groups: []int32{0, 1}, Ops: ops}, ts(5, g), 0, command.ID{})
	}
	tb.registerAbort(0, &Abort{XID: dead, Group: 0})
	for _, xid := range []XID{done, dead} {
		tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(7, 0), 0, command.ID{})
		tb.registerPiece(1, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(7, 1), 0, command.ID{})
		tb.registerAbort(1, &Abort{XID: xid, Group: 1})
		tb.KillStale(0, xid)
		called := false
		tb.Expect(xid, []int32{0, 1}, ops, 0, func(protocol.Result) { called = true })
		if called {
			t.Errorf("%v: Expect's callback fired", xid)
		}
	}
	if n := len(tb.entries); n != 0 || exec.count() != 1 {
		t.Fatalf("%d entries and %d executions after the late inputs, want 0 and 1", n, exec.count())
	}
	if tb.settled.Runs(1) != 1 {
		t.Fatalf("settled runs for node 1: %d, want 1", tb.settled.Runs(1))
	}
}

// TestTenThousandSettledTransactionsCostARunEach: 10,000 transactions from
// three coordinators, completed slightly out of XID order, leave no entry
// behind and at most two runs per coordinator in the settled set.
func TestTenThousandSettledTransactionsCostARunEach(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	const coordinators, perCoordinator = 3, 3334
	for seq := uint64(1); seq <= perCoordinator; seq += 2 {
		for node := int32(0); node < coordinators; node++ {
			// Each pair completes in reverse: seq+1 first, then seq.
			for _, s := range []uint64{seq + 1, seq} {
				if s > perCoordinator {
					continue
				}
				xid := XID{Node: timestamp.NodeID(node), Seq: s}
				key := fmt.Sprintf("k%d/%d", node, s)
				p := &Piece{XID: xid, Groups: []int32{0, 1}, Ops: testOps(key+"a", key+"b")}
				tb.registerPiece(0, p, ts(s, 0), 0, command.ID{})
				tb.registerPiece(1, p, ts(s, 1), 0, command.ID{})
			}
		}
	}
	if got := exec.count(); got != coordinators*perCoordinator {
		t.Fatalf("%d executions, want %d", got, coordinators*perCoordinator)
	}
	if n := len(tb.entries); n != 0 {
		t.Fatalf("%d entries left", n)
	}
	for node := timestamp.NodeID(0); node < coordinators; node++ {
		if runs := tb.settled.Runs(node); runs > 2 {
			t.Errorf("coordinator %d: %d settled runs", node, runs)
		}
	}
}
