package wal

import (
	"sync"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// TestSettledTransactionsLeaveNoAggregates drives 10,000 two-group
// transactions from three coordinators through a commit table wired to the
// log as a node stack wires them — every tenth killed by an abort marker
// that beats its first piece — and checks what is left: no pending entry
// in the table, no txAgg in the log's aggregates, and a settled set of at
// most two runs per coordinator, live and after a restart.
func TestSettledTransactionsLeaveNoAggregates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	store := kvstore.New()
	tb := xshard.NewTable(xshard.TableConfig{Self: 0, Exec: store, ApplyTx: l.TxApplier(store)}, nil)
	apps := []protocol.Applier{l.GroupApplier(0, tb.Applier(0, store)), l.GroupApplier(1, tb.Applier(1, store))}

	const txs, coordinators = 10000, 3
	var acked sync.WaitGroup
	var ids [2]uint64
	deliver := func(g int32, cmd command.Command, ts timestamp.Timestamp) {
		ids[g]++
		cmd.ID = command.ID{Node: timestamp.NodeID(g), Seq: ids[g]}
		acked.Add(1)
		apps[g].ApplyDeferred(cmd, ts, func(res protocol.Result) {
			if res.Err != nil {
				t.Errorf("%v: %v", cmd.ID, res.Err)
			}
			acked.Done()
		})
	}
	for i := 0; i < txs; i++ {
		xid := xshard.XID{Node: timestamp.NodeID(i % coordinators), Seq: uint64(i/coordinators) + 1}
		ops := []command.Command{command.Add("a", 1), command.Add("b", 1)}
		groups := []int32{0, 1}
		ts := timestamp.Timestamp{Seq: uint64(i) + 1}
		if i%10 == 0 {
			marker, _ := xshard.AbortCommand(xid, 0, ops[:1])
			deliver(0, marker, ts)
		}
		for g := range groups {
			piece, _ := xshard.PieceCommand(xid, groups, ops, ops[g:g+1])
			deliver(int32(g), piece, ts)
		}
	}
	acked.Wait()

	if n := tb.Pending(); n != 0 {
		t.Errorf("%d transactions pending in the table", n)
	}
	l.mu.Lock()
	left, settled := len(l.agg.txs), l.agg.settled.Clone()
	l.mu.Unlock()
	if left != 0 {
		t.Errorf("%d txAggs left in the aggregates", left)
	}
	check := func(when string, st *State) {
		if got := st.Settled.Len(); got != txs {
			t.Errorf("%s: %d settled XIDs, want %d", when, got, txs)
		}
		for n := timestamp.NodeID(0); n < coordinators; n++ {
			if runs := st.Settled.Runs(n); runs > 2 {
				t.Errorf("%s: coordinator %d's settled XIDs take %d runs", when, n, runs)
			}
		}
		if len(st.PendingTx) != 0 {
			t.Errorf("%s: %d pending transactions", when, len(st.PendingTx))
		}
	}
	check("live", &State{Settled: settled})
	l.Close()

	_, st := mustOpen(t, dir, Options{})
	check("replayed", st.State)
}
