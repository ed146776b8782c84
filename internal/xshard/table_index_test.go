package xshard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// TestTableAwaitGroupDrain checks the handoff hook: the callback fires
// only after every earlier-epoch transaction holding a piece from the group
// has resolved (by execution here, by death elsewhere), and immediately
// when none does. A transaction of the fence's own epoch is not waited for.
func TestTableAwaitGroupDrain(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)

	// Two transactions holding a group-0 piece, one of them also complete
	// later; a third never touches group 0.
	x1, x2, x3 := XID{Node: 1, Seq: 1}, XID{Node: 1, Seq: 2}, XID{Node: 1, Seq: 3}
	tb.registerPiece(0, &Piece{XID: x1, Groups: []int32{0, 1}, Ops: testOps("a", "b")}, ts(1, 0), 0, command.ID{})
	tb.registerPiece(0, &Piece{XID: x2, Groups: []int32{0, 1}, Ops: testOps("c", "d")}, ts(2, 0), 0, command.ID{})
	tb.registerPiece(1, &Piece{XID: x3, Groups: []int32{1, 2}, Ops: testOps("e", "f")}, ts(3, 1), 0, command.ID{})
	x4 := XID{Node: 1, Seq: 4}
	tb.registerPiece(0, &Piece{XID: x4, Groups: []int32{0, 3}, Ops: testOps("g", "h")}, ts(3, 0), 1, command.ID{})

	fired := make(chan struct{})
	tb.AwaitGroupDrain(0, 1, func() { close(fired) })
	select {
	case <-fired:
		t.Fatal("drain fired while two group-0 transactions were pending")
	default:
	}

	// x1 completes and executes.
	tb.registerPiece(1, &Piece{XID: x1, Groups: []int32{0, 1}, Ops: testOps("a", "b")}, ts(4, 1), 0, command.ID{})
	select {
	case <-fired:
		t.Fatal("drain fired with x2 still pending")
	default:
	}
	// x2 dies by abort marker.
	tb.registerAbort(1, &Abort{XID: x2, Group: 1})
	// Must fire now: x3 never mattered, nor epoch 1's x4.
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("drain waited for a transaction of the fence's own epoch")
	}

	// With nothing pending the callback is immediate.
	immediate := make(chan struct{})
	tb.AwaitGroupDrain(0, 1, func() { close(immediate) })
	<-immediate
}

// TestTableKillStale checks the epoch-kill path: the transaction dies with
// ErrEpochRetry on the coordinator's callback, and a late piece hits the
// settled set.
func TestTableKillStale(t *testing.T) {
	exec := &recordingExec{}
	tb := newTestTable(exec)
	xid := XID{Node: 0, Seq: 1}
	ops := testOps("a", "b")
	var got error
	tb.Expect(xid, []int32{0, 1}, ops, 5, func(r protocol.Result) { got = r.Err })
	tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(1, 0), 5, command.ID{})

	tb.KillStale(1, xid)
	if !errors.Is(got, ErrEpochRetry) {
		t.Fatalf("client callback got %v, want ErrEpochRetry", got)
	}
	// The straggler piece must not resurrect the transaction.
	tb.registerPiece(1, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(2, 1), 5, command.ID{})
	if exec.count() != 0 {
		t.Fatalf("killed transaction executed %d times", exec.count())
	}
}

// BenchmarkTableRegister measures piece registration with hundreds of
// non-conflicting transactions in flight — the regime that was O(T²)
// under the table mutex when every registration rescanned every held
// entry, and is O(conflicts) with the key index. At inflight=400 the
// indexed drain is orders of magnitude off the flat rescan.
func BenchmarkTableRegister(b *testing.B) {
	for _, inflight := range []int{50, 400} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			exec := &recordingExec{}
			tb := newTestTable(exec)
			// Hold `inflight` transactions waiting for their second piece.
			for i := 0; i < inflight; i++ {
				xid := XID{Node: 1, Seq: uint64(i + 1)}
				ops := testOps(fmt.Sprintf("held-a-%d", i), fmt.Sprintf("held-b-%d", i))
				tb.registerPiece(0, &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}, ts(uint64(i+1), 0), 0, command.ID{})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each iteration completes one fresh transaction: two
				// registrations, the second of which executes it.
				xid := XID{Node: 2, Seq: uint64(i + 1)}
				ops := testOps(fmt.Sprintf("bench-a-%d", i), fmt.Sprintf("bench-b-%d", i))
				p := &Piece{XID: xid, Groups: []int32{0, 1}, Ops: ops}
				tb.registerPiece(0, p, ts(uint64(inflight+2*i+1), 0), 0, command.ID{})
				tb.registerPiece(1, p, ts(uint64(2*i+1), 1), 0, command.ID{})
			}
		})
	}
}

// TestResolveKillsTransactionOfRetiredGroup pins the liveness fix for a
// piece that was never ordered in a group a shrink then retired: the
// resolution sweep's abort marker cannot be proposed (ErrNoGroup), which
// must kill the entry locally instead of leaving it pending forever —
// blocking every later conflicting transaction through blockedLocked.
func TestResolveKillsTransactionOfRetiredGroup(t *testing.T) {
	exec := &recordingExec{}
	now := time.Unix(0, 0)
	history := shard.NewEpochs()
	history.Install(0, 4)
	tb := NewTable(TableConfig{
		Self: 0, Exec: exec,
		ResolveTimeout: time.Second,
		Now:            func() time.Time { return now },
	}, history)
	tb.bind(func(g int, cmd command.Command, done protocol.DoneFunc) {
		if done != nil {
			done(protocol.Result{Err: shard.ErrNoGroup}) // group retired
		}
	})

	// Keys homed in groups 1 and 3 of the 4-group epoch.
	r := shard.NewRouter(4)
	var k1, k3 string
	for i := 0; k1 == "" || k3 == ""; i++ {
		k := fmt.Sprintf("rk-%d", i)
		switch r.Shard(k) {
		case 1:
			if k1 == "" {
				k1 = k
			}
		case 3:
			if k3 == "" {
				k3 = k
			}
		}
	}
	xid := XID{Node: 1, Seq: 1}
	ops := []command.Command{command.Put(k1, nil), command.Put(k3, nil)}
	tb.registerPiece(1, &Piece{XID: xid, Groups: []int32{1, 3}, Ops: ops}, ts(1, 1), 0, command.ID{})

	// A later conflicting transaction completes but is blocked by the
	// stuck entry.
	x2 := XID{Node: 2, Seq: 1}
	ops2 := []command.Command{command.Put(k1, nil), command.Put(k3, nil)}
	tb.registerPiece(1, &Piece{XID: x2, Groups: []int32{1, 3}, Ops: ops2}, ts(5, 1), 0, command.ID{})
	tb.registerPiece(3, &Piece{XID: x2, Groups: []int32{1, 3}, Ops: ops2}, ts(6, 3), 0, command.ID{})
	if exec.count() != 0 {
		t.Fatal("x2 executed past a lower-bounded conflicting incomplete entry")
	}

	// The sweep past the (staggered) deadline proposes the marker to the
	// retired group, learns ErrNoGroup, and kills the entry.
	now = now.Add(time.Hour)
	tb.Resolve()
	if tb.Pending() != 0 {
		t.Fatalf("stuck entry survived: %d pending", tb.Pending())
	}
	if exec.count() != 1 {
		t.Fatalf("blocked transaction still deferred after the kill: %d executions", exec.count())
	}
}
