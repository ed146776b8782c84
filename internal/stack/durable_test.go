package stack_test

import (
	"bytes"
	"context"
	"errors"
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
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// ackTap records every command ID a node GC-acknowledges to a peer.
type ackTap struct {
	transport.Endpoint
	mu    sync.Mutex
	acked map[command.ID]bool
}

func (a *ackTap) Send(to timestamp.NodeID, payload any) {
	if m, ok := payload.(*caesar.StableAckBatch); ok {
		a.mu.Lock()
		for _, id := range m.IDs {
			a.acked[id] = true
		}
		a.mu.Unlock()
	}
	a.Endpoint.Send(to, payload)
}

func (a *ackTap) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.acked)
}

// TestRefusedAppendIsNotAcknowledged closes the log under a running
// replica: a command the log refused is in no log, so its client must be
// told (not "ok") and the node must not GC-acknowledge it — an acked
// command may be purged cluster-wide.
func TestRefusedAppendIsNotAcknowledged(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	dir := t.TempDir()
	tap := &ackTap{Endpoint: net.Endpoint(0), acked: make(map[command.ID]bool)}
	stacks := make([]*stack.Stack, 3)
	for i := range stacks {
		var ep transport.Endpoint = net.Endpoint(timestamp.NodeID(i))
		if i == 0 {
			ep = tap
		}
		stk, err := stack.Build(ep, stack.Config{
			DataDir:          fmt.Sprintf("%s/n%d", dir, i),
			SnapshotInterval: -1,
			Build: stack.CaesarEngine(caesar.Config{
				HeartbeatInterval: -1,
				GCInterval:        5 * time.Millisecond,
				RetransmitAfter:   20 * time.Millisecond,
			}),
		})
		if err != nil {
			t.Fatalf("Build node %d: %v", i, err)
		}
		stacks[i] = stk
		stk.Start()
		defer stk.Stop()
	}

	// Control: with its log open, node 0 acknowledges what it applied.
	submit(t, stacks[1], command.Put("before", []byte("1")))
	waitUntil(t, 5*time.Second, func() bool { return tap.count() >= 1 })

	if err := stacks[0].Log.Close(); err != nil {
		t.Fatalf("closing node 0's log: %v", err)
	}
	acked := tap.count()

	done := make(chan protocol.Result, 1)
	stacks[0].Engine.Submit(command.Put("refused", []byte("2")), func(res protocol.Result) { done <- res })
	select {
	case res := <-done:
		if !errors.Is(res.Err, wal.ErrClosed) {
			t.Errorf("command refused by the log was acknowledged with err = %v, want wal.ErrClosed", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submit through the node with the closed log timed out")
	}
	// A peer's command is decided with node 0's vote and delivered there
	// too; its leader keeps re-sending the decision for want of an ack.
	submit(t, stacks[1], command.Put("after", []byte("3")))
	time.Sleep(200 * time.Millisecond) // 40 GC intervals, 10 retransmissions
	if got := tap.count(); got != acked {
		t.Errorf("node 0 GC-acknowledged %d command(s) its closed log refused", got-acked)
	}
	if _, ok := stacks[0].Store.Get("refused"); ok {
		t.Error("a command the log refused was applied")
	}
}

// trySubmit is submit for goroutines other than the test's own.
func trySubmit(s *stack.Stack, cmd command.Command) error {
	done := make(chan protocol.Result, 1)
	s.Engine.Submit(cmd, func(res protocol.Result) { done <- res })
	select {
	case res := <-done:
		return res.Err
	case <-time.After(15 * time.Second):
		return fmt.Errorf("submit %v timed out", cmd)
	}
}

// TestDurableShardedReplayMatchesAcrossResize drives order-sensitive
// writes and cross-shard transfers through a durable sharded cluster
// while it resizes — every delivery passes the rebalance gate, the log
// and the commit table off its event loop — and then replays each node's
// data dir: the store a node stopped with must be exactly what its log
// reproduces, so the log order is the order it applied in, across the
// resize, and every replica must agree on the keys only single commands
// wrote.
func TestDurableShardedReplayMatchesAcrossResize(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	dir := t.TempDir()
	dirs := func(i int) string { return fmt.Sprintf("%s/n%d", dir, i) }
	stacks := buildCluster(t, net, 3, 2, dirs)

	const writers, transfers = 6, 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	last := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 1; ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := trySubmit(stacks[w%3], command.Put(fmt.Sprintf("seq/%d", w), []byte(fmt.Sprint(v)))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				last[w] = v
			}
		}(w)
	}
	for x := 0; x < transfers; x++ {
		wg.Add(1)
		go func(x int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := batch.Pack([]command.Command{
					command.Add(fmt.Sprintf("acct/%d", i%5), 1),
					command.Add(fmt.Sprintf("acct/%d", 5+i%7), -1),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := trySubmit(stacks[(x+1)%3], tx); err != nil {
					t.Errorf("transfer %d: %v", x, err)
					return
				}
			}
		}(x)
	}
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	if err := stacks[0].Coordinator.Resize(ctx, 4); err != nil {
		t.Errorf("resize: %v", err)
	}
	cancel()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Every write was acknowledged at its submitter; let the other
	// replicas finish applying before the nodes stop.
	waitUntil(t, 10*time.Second, func() bool {
		for _, s := range stacks {
			for w, v := range last {
				if got, _ := s.Store.Get(fmt.Sprintf("seq/%d", w)); string(got) != fmt.Sprint(v) {
					return false
				}
			}
		}
		return true
	})
	for _, s := range stacks {
		s.Stop()
	}

	for i, s := range stacks {
		replayed := kvstore.New()
		log, st, err := wal.OpenInto(dirs(i), replayed, wal.Options{})
		if err != nil {
			t.Fatalf("node %d: replay: %v", i, err)
		}
		log.Close()
		if ec, ok := st.CurrentEpoch(); !ok || ec.Shards != 4 {
			t.Errorf("node %d: replayed epoch %+v, want 4 shards", i, ec)
		}
		live, again := s.Store.Export(nil), replayed.Export(nil)
		if len(live) != len(again) {
			t.Errorf("node %d: live store has %d keys, its replayed log %d", i, len(live), len(again))
		}
		for k, v := range live {
			if !bytes.Equal(again[k], v) {
				t.Errorf("node %d key %q: live %q, replayed %q", i, k, v, again[k])
			}
		}
		if s.Store.Applied() != replayed.Applied() {
			t.Errorf("node %d: live store applied %d, its replayed log %d", i, s.Store.Applied(), replayed.Applied())
		}
	}
}
