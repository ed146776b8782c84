package xshard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// xnode is one node of a sharded CAESAR deployment with the cross-shard
// commit layer on top.
type xnode struct {
	store *kvstore.Store
	table *Table
	eng   *Engine
}

// xcluster builds an n-node, g-group deployment over a fresh memnet.
func xcluster(t testing.TB, n, g int, ccfg caesar.Config, tcfg TableConfig) (*memnet.Network, []*xnode) {
	t.Helper()
	net := memnet.New(memnet.Config{Nodes: n})
	nodes := make([]*xnode, n)
	for i := 0; i < n; i++ {
		store := kvstore.New()
		app := batch.NewApplier(store)
		tc := tcfg
		tc.Self = timestamp.NodeID(i)
		tc.Exec = app
		history := shard.NewEpochs()
		history.Install(0, int32(g))
		table := NewTable(tc, history)
		eng := NewEngine(net.Endpoint(timestamp.NodeID(i)), make([]int32, g), table, func(gi int, sep transport.Endpoint) protocol.Engine {
			return caesar.New(sep, protocol.Sync(table.Applier(gi, app)), ccfg)
		})
		nodes[i] = &xnode{store: store, table: table, eng: eng}
		nodes[i].eng.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.eng.Stop()
		}
		net.Close()
	})
	return net, nodes
}

// keysInGroups returns distinct keys, one routed to each listed group
// (groups may repeat).
func keysInGroups(r shard.Router, groups ...int) []string {
	out := make([]string, len(groups))
	used := make(map[string]bool)
	for gi, g := range groups {
		for i := 0; out[gi] == ""; i++ {
			if k := fmt.Sprintf("key-%d-%d", gi, i); r.Shard(k) == g && !used[k] {
				out[gi], used[k] = k, true
			}
		}
	}
	return out
}

// submitWait submits cmd on nd and waits for local execution.
func submitWait(t testing.TB, nd *xnode, cmd command.Command, timeout time.Duration) protocol.Result {
	t.Helper()
	ch := make(chan protocol.Result, 1)
	nd.eng.Submit(cmd, func(res protocol.Result) { ch <- res })
	select {
	case res := <-ch:
		return res
	case <-time.After(timeout):
		t.Fatalf("submit of %v timed out", cmd)
		return protocol.Result{}
	}
}

// txn packs member ops into one multi-key batch command.
func txn(t testing.TB, ops ...command.Command) command.Command {
	t.Helper()
	cmd, err := batch.Pack(ops)
	if err != nil {
		t.Fatal(err)
	}
	return cmd
}

func waitCond(t testing.TB, desc string, timeout time.Duration, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCrossShardCommitEndToEnd(t *testing.T) {
	_, nodes := xcluster(t, 3, 2, caesar.Config{HeartbeatInterval: -1}, TableConfig{})
	keys := keysInGroups(nodes[0].eng.Router(), 0, 1)

	res := submitWait(t, nodes[0], txn(t,
		command.Put(keys[0], []byte("left")),
		command.Put(keys[1], []byte("right")),
	), 10*time.Second)
	if res.Err != nil {
		t.Fatalf("cross-shard submit failed: %v (ErrCrossShard regression?)", res.Err)
	}
	// Every node applies both writes (atomically, via its commit table).
	waitCond(t, "all nodes applied both keys", 10*time.Second, func() bool {
		for _, nd := range nodes {
			l, okl := nd.store.Get(keys[0])
			r, okr := nd.store.Get(keys[1])
			if !okl || !okr || string(l) != "left" || string(r) != "right" {
				return false
			}
		}
		return true
	})
	for i, nd := range nodes {
		if p := nd.table.Pending(); p != 0 {
			t.Errorf("node %d: %d transactions still pending after commit", i, p)
		}
	}
}

func TestCrossShardConcurrentTransfersConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node stress run")
	}
	_, nodes := xcluster(t, 3, 4, caesar.Config{HeartbeatInterval: -1}, TableConfig{})
	r := nodes[0].eng.Router()
	accounts := keysInGroups(r, 0, 1, 2, 3)

	// Fund every account through ordinary single-key consensus.
	const initial = 1000
	for _, k := range accounts {
		if res := submitWait(t, nodes[0], command.Add(k, initial), 10*time.Second); res.Err != nil {
			t.Fatalf("funding failed: %v", res.Err)
		}
	}

	// Concurrent conflicting cross-shard transfers from every node: each
	// moves 1 unit between accounts on different groups.
	const perNode = 25
	var wg sync.WaitGroup
	errs := make(chan error, 3*perNode)
	for n := range nodes {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				from := accounts[(n+i)%len(accounts)]
				to := accounts[(n+i+1)%len(accounts)]
				res := submitWait(t, nodes[n], txn(t, command.Add(from, -1), command.Add(to, 1)), 20*time.Second)
				if res.Err != nil {
					errs <- fmt.Errorf("node %d transfer %d: %w", n, i, res.Err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Let remote deliveries drain, then check conservation and agreement.
	waitCond(t, "stores converge", 20*time.Second, func() bool {
		for _, nd := range nodes {
			var sum int64
			for _, k := range accounts {
				v, ok := nd.store.Get(k)
				if !ok {
					return false
				}
				sum += kvDecode(v)
			}
			if sum != int64(initial*len(accounts)) {
				return false
			}
		}
		// All nodes agree per key.
		for _, k := range accounts {
			base, _ := nodes[0].store.Get(k)
			for _, nd := range nodes[1:] {
				v, _ := nd.store.Get(k)
				if kvDecode(v) != kvDecode(base) {
					return false
				}
			}
		}
		return true
	})
}

func kvDecode(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	var v int64
	for _, x := range b {
		v = v<<8 | int64(x)
	}
	return v
}

func TestCrossShardSingleGroupBatchPassesThrough(t *testing.T) {
	_, nodes := xcluster(t, 3, 2, caesar.Config{HeartbeatInterval: -1}, TableConfig{})
	r := nodes[0].eng.Router()
	// Two keys on the SAME group: the transaction is an ordinary batch and
	// must not enter the commit table.
	keys := keysInGroups(r, 0, 0)
	res := submitWait(t, nodes[1], txn(t,
		command.Put(keys[0], []byte("u")),
		command.Put(keys[1], []byte("w")),
	), 10*time.Second)
	if res.Err != nil {
		t.Fatalf("single-group batch failed: %v", res.Err)
	}
	if p := nodes[1].table.Pending(); p != 0 {
		t.Fatalf("single-group batch entered the commit table (%d pending)", p)
	}
	waitCond(t, "batch applied", 10*time.Second, func() bool {
		v, ok := nodes[1].store.Get(keys[1])
		return ok && string(v) == "w"
	})
}
