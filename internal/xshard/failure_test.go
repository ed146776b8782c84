package xshard

// Failure injection for the cross-shard commit layer: when the
// coordinating node dies mid-commit, the survivors must drive every held
// transaction to the same verdict — executed on every survivor, or on
// none. Partial application (one group's writes without the other's) is
// the bug class these tests pin down.

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
)

// recoveryCfg enables CAESAR's failure detector with test-fast timeouts so
// survivors finish a dead coordinator's in-flight pieces.
func recoveryCfg() caesar.Config {
	return caesar.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    200 * time.Millisecond,
		RecoveryBackoff:   50 * time.Millisecond,
	}
}

// TestCoordinatorCrashBetweenPiecesAborts: the coordinator placed group
// 0's piece but died before submitting group 1's. The survivors hold group
// 0's piece, time out, and propose an abort marker to group 1; since that
// group never sees a piece, the marker wins and the transaction dies
// everywhere with nothing applied.
func TestCoordinatorCrashBetweenPiecesAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out resolution timeouts")
	}
	tcfg := TableConfig{ResolveTimeout: 250 * time.Millisecond}
	net, nodes := xcluster(t, 3, 2, recoveryCfg(), tcfg)
	r := nodes[0].eng.Router()
	keys := keysInGroups(r, 0, 1)
	ops := []command.Command{
		command.Put(keys[0], []byte("half")),
		command.Put(keys[1], []byte("other-half")),
	}

	// Hand-craft the partial commit the coordinator would have left
	// behind: only group 0's piece is proposed, through node 0.
	xid := nodes[0].table.nextXID()
	pc, err := PieceCommand(xid, []int32{0, 1}, ops, ops[:1])
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	nodes[0].eng.SubmitTo(0, pc, func(protocol.Result) { close(done) })
	<-done
	time.Sleep(30 * time.Millisecond) // let the stable broadcast reach the survivors

	// The coordinator dies; the survivors hold an incomplete transaction.
	net.Crash(0)
	nodes[0].eng.Stop()
	waitCond(t, "survivors hold the orphaned piece", 5*time.Second, func() bool {
		return nodes[1].table.Pending() == 1 && nodes[2].table.Pending() == 1
	})

	// Resolution: abort markers kill it; nothing is ever applied. The
	// survivors resolve on every poll, as a node's maintenance loop would
	// on every tick.
	waitCond(t, "survivors abort the orphan", 10*time.Second, func() bool {
		return resolved(nodes[1:])
	})
	for i, nd := range nodes[1:] {
		for _, k := range keys {
			if _, ok := nd.store.Get(k); ok {
				t.Errorf("survivor %d partially applied the aborted transaction (key %q exists)", i+1, k)
			}
		}
	}
}

// TestCoordinatorCrashAfterAllPiecesCommits: the coordinator died after
// every piece was placed (it even saw its own commit). The survivors must
// finish the transaction and apply it everywhere — the client's money is
// not lost with its coordinator.
func TestCoordinatorCrashAfterAllPiecesCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node recovery run")
	}
	tcfg := TableConfig{ResolveTimeout: 2 * time.Second}
	net, nodes := xcluster(t, 3, 2, recoveryCfg(), tcfg)
	keys := keysInGroups(nodes[0].eng.Router(), 0, 1)

	res := submitWait(t, nodes[0], txn(t,
		command.Put(keys[0], []byte("left")),
		command.Put(keys[1], []byte("right")),
	), 10*time.Second)
	if res.Err != nil {
		t.Fatalf("cross-shard submit failed: %v", res.Err)
	}
	time.Sleep(50 * time.Millisecond) // let the stable broadcasts propagate
	net.Crash(0)
	nodes[0].eng.Stop()

	waitCond(t, "survivors execute the committed transaction", 10*time.Second, func() bool {
		for _, nd := range nodes[1:] {
			l, okl := nd.store.Get(keys[0])
			r, okr := nd.store.Get(keys[1])
			if !okl || !okr || string(l) != "left" || string(r) != "right" {
				return false
			}
		}
		return true
	})
}

// TestCoordinatorCrashMidFlightIsAllOrNothing crashes the coordinator at a
// racy instant — right after Submit returns, while the pieces are still in
// consensus. Whatever the survivors decide (finish via per-group recovery,
// or abort via markers), the outcome must be identical on every survivor
// and never a partial application.
func TestCoordinatorCrashMidFlightIsAllOrNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out suspicion and resolution timeouts")
	}
	tcfg := TableConfig{ResolveTimeout: 400 * time.Millisecond}
	net, nodes := xcluster(t, 3, 2, recoveryCfg(), tcfg)
	keys := keysInGroups(nodes[0].eng.Router(), 0, 1)

	nodes[0].eng.Submit(txn(t,
		command.Put(keys[0], []byte("l")),
		command.Put(keys[1], []byte("r")),
	), nil)
	net.Crash(0)
	nodes[0].eng.Stop()

	// Wait for quiescence: no survivor holds a pending transaction.
	waitCond(t, "survivors quiesce", 15*time.Second, func() bool {
		return resolved(nodes[1:])
	})
	// Give a committed outcome time to apply on both, then take stock.
	time.Sleep(100 * time.Millisecond)
	for _, nd := range nodes[1:] {
		_, okl := nd.store.Get(keys[0])
		_, okr := nd.store.Get(keys[1])
		if okl != okr {
			t.Fatalf("partial application on a survivor: key0=%v key1=%v", okl, okr)
		}
	}
	_, on1 := nodes[1].store.Get(keys[0])
	_, on2 := nodes[2].store.Get(keys[0])
	if on1 != on2 {
		t.Fatalf("survivors diverged: node1 applied=%v node2 applied=%v", on1, on2)
	}
}

// resolved runs one resolution pass on each node's table and reports
// whether none of them holds a pending transaction any more.
func resolved(nodes []*xnode) bool {
	idle := true
	for _, nd := range nodes {
		nd.table.Resolve()
		idle = idle && nd.table.Pending() == 0
	}
	return idle
}
