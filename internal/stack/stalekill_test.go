package stack_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/rebalance"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// handGroup is a group engine that proposes nothing: the test hands its
// deliveries to the group's apply chain itself, in the order it wants.
type handGroup struct{ app protocol.Applier }

func (*handGroup) Submit(_ command.Command, done protocol.DoneFunc) {
	if done != nil {
		done(protocol.Result{})
	}
}
func (*handGroup) Start() {}
func (*handGroup) Stop()  {}

// deliver hands one decided command to the group's chain and waits until
// the chain has completed it (on a durable node, after the log's sync).
func (h *handGroup) deliver(t *testing.T, cmd command.Command, ts timestamp.Timestamp) {
	t.Helper()
	done := make(chan struct{})
	h.app.ApplyDeferred(cmd, ts, func(protocol.Result) { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("delivery of %v never completed", cmd.ID)
	}
}

// TestStaleKillIsDurable: a transaction's piece is logged by group 0, and
// its sibling piece reaches group 1 after that group's resize fence, so
// the rebalance gate kills the transaction as stale. The log must record
// that kill at the piece's position: after a restart on the same data
// dir the transaction is settled, not re-seeded as held (where same-key
// traffic, snapshot reads and handoff drains would wait behind it for
// the resolution timeout and an abort round), and group 1's delivered
// set holds the stale piece's ID.
func TestStaleKillIsDurable(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 1})
	defer net.Close()
	now, _ := fakeClock(time.Unix(5000, 0))
	dir := t.TempDir()
	var groups []*handGroup
	build := func() *stack.Stack {
		groups = nil
		stk, err := stack.Build(net.Endpoint(0), stack.Config{
			Shards:    2,
			Rebalance: true,
			DataDir:   dir,
			Now:       now,
			Build: func(g int, _ transport.Endpoint, app protocol.Applier, _ wal.GroupSeed, _ *metrics.Recorder, _ *contend.Group) protocol.Engine {
				h := &handGroup{app: app}
				groups = append(groups, h)
				return h
			},
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		stk.Start()
		return stk
	}

	stk := build()
	xid := xshard.XID{Node: 0, Seq: 1}
	ops := []command.Command{command.Put("stale-a", []byte("a")), command.Put("stale-b", []byte("b"))}
	piece := func(g int32, seq uint64) command.Command {
		pc, err := xshard.PieceCommand(xid, []int32{0, 1}, ops, ops[g:g+1])
		if err != nil {
			t.Fatal(err)
		}
		pc.ID = command.ID{Node: 0, Seq: seq}
		return pc
	}
	fence, err := rebalance.FenceCommand(rebalance.Marker{Epoch: 1, Shards: 1, PrevShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fence.ID = command.ID{Node: 0, Seq: 1}

	groups[0].deliver(t, piece(0, 1), timestamp.Timestamp{Seq: 1})
	groups[1].deliver(t, fence, timestamp.Timestamp{Seq: 1})
	stale := piece(1, 2)
	groups[1].deliver(t, stale, timestamp.Timestamp{Seq: 2})
	if n := stk.Table.Pending(); n != 0 {
		t.Fatalf("the stale piece left %d transaction(s) pending in the table", n)
	}
	stk.Stop()

	rebuilt := build()
	defer rebuilt.Stop()
	if i := slices.IndexFunc(rebuilt.Recovered.PendingTx, func(p wal.PendingTx) bool { return p.XID == xid }); i >= 0 {
		t.Fatalf("the log recovered the stale-killed transaction %v as pending: %+v", xid, rebuilt.Recovered.PendingTx[i])
	}
	if n := rebuilt.Table.Pending(); n != 0 {
		t.Fatalf("the restarted table holds %d transaction(s)", n)
	}
	if set := rebuilt.Recovered.Delivered[1]; set == nil || !set.Has(stale.ID) {
		t.Fatalf("group 1's recovered delivered set lacks the stale piece %v", stale.ID)
	}
}

// TestStaleSkipIsDurable: an ordinary command routed under epoch 0 to a
// key that moves reaches group 1 after that group's resize fence, so the
// rebalance gate skips it as stale — a peer's as dropped, this node's as
// re-routed under the new epoch. The log must record the skip at the
// command's position, as a noop under its ID: after a restart on the same
// data dir group 1's delivered set holds both IDs, and the store counts
// both noops as applied on the live and on the replay path alike.
func TestStaleSkipIsDurable(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 1})
	defer net.Close()
	now, _ := fakeClock(time.Unix(5000, 0))
	dir := t.TempDir()
	var groups []*handGroup
	build := func() *stack.Stack {
		groups = nil
		stk, err := stack.Build(net.Endpoint(0), stack.Config{
			Shards:    2,
			Rebalance: true,
			DataDir:   dir,
			Now:       now,
			Build: func(g int, _ transport.Endpoint, app protocol.Applier, _ wal.GroupSeed, _ *metrics.Recorder, _ *contend.Group) protocol.Engine {
				h := &handGroup{app: app}
				groups = append(groups, h)
				return h
			},
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		stk.Start()
		return stk
	}

	stk := build()
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("moves-%d", i); shard.NewRouter(2).Shard(k) == 1 {
			key = k
		}
	}
	fence, err := rebalance.FenceCommand(rebalance.Marker{Epoch: 1, Shards: 1, PrevShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fence.ID = command.ID{Node: 0, Seq: 1}
	groups[1].deliver(t, fence, timestamp.Timestamp{Seq: 1})
	peers := command.Put(key, []byte("peer's"))
	peers.ID = command.ID{Node: 1, Seq: 1}
	mine := command.Put(key, []byte("mine"))
	mine.ID = command.ID{Node: 0, Seq: 2}
	groups[1].deliver(t, peers, timestamp.Timestamp{Seq: 2, Node: 1})
	groups[1].deliver(t, mine, timestamp.Timestamp{Seq: 3})
	if n := stk.Store.Applied(); n != 2 {
		t.Errorf("the live store counts %d applied commands, want the 2 noops", n)
	}
	if v, ok := stk.Store.Get(key); ok {
		t.Fatalf("a stale put reached the store: %s = %q", key, v)
	}
	stk.Stop()

	rebuilt := build()
	defer rebuilt.Stop()
	for _, id := range []command.ID{peers.ID, mine.ID} {
		if set := rebuilt.Recovered.Delivered[1]; set == nil || !set.Has(id) {
			t.Errorf("group 1's recovered delivered set lacks the stale command %v", id)
		}
	}
	if n := rebuilt.Store.Applied(); n != 2 {
		t.Errorf("the replayed store counts %d applied commands, want the 2 noops", n)
	}
}
