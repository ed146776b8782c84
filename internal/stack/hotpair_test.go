package stack_test

// Whitebox regression of the hot-pair-vs-resize scenario behind the rare
// liveness stall cornered in PR 5: two keys on different groups take
// continuous cross-shard transfers and local snapshot reads while the
// deployment resizes. A wedged transfer (15s without completing) fails
// the run and dumps every node's commit-table and coordinator state —
// the introspection that located the uncovered stuck-recovery classes.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
)

func buildTrio(t *testing.T, shards int) (*memnet.Network, []*stack.Stack) {
	t.Helper()
	net := memnet.New(memnet.Config{Nodes: 3})
	stacks := make([]*stack.Stack, 3)
	for i := 0; i < 3; i++ {
		ep := net.Endpoint(timestamp.NodeID(i))
		stk, err := stack.Build(ep, stack.Config{
			Shards:    shards,
			Store:     kvstore.New(),
			Rebalance: true,
			Build: func(_ int, sep transport.Endpoint, app protocol.Applier, _ wal.GroupSeed, _ *metrics.Recorder, _ *contend.Group) protocol.Engine {
				return caesar.New(sep, app, caesar.Config{})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = stk
	}
	for _, s := range stacks {
		s.Start()
	}
	return net, stacks
}

func TestHotPairTransfersAcrossResize(t *testing.T) {
	if testing.Short() {
		t.Skip("stall regression loop takes seconds")
	}
	for iter := 0; iter < 2; iter++ {
		net, stacks := buildTrio(t, 4)
		router := shard.NewRouter(4)
		accA, accB := "", ""
		for i := 0; accB == ""; i++ {
			k := fmt.Sprintf("acct/%d", i)
			switch {
			case accA == "":
				accA = k
			case router.Shard(k) != router.Shard(accA):
				accB = k
			}
		}
		var stalled atomic.Bool
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Snapshot readers mirroring the failing conformance run: local
		// ReadTx over the hot pair on every node.
		rctx, rcancel := context.WithCancel(context.Background())
		for n := 0; n < 3; n++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				rd := stacks[n].Reads
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := rd.ReadTx(rctx, []string{accA, accB}); err != nil && rctx.Err() == nil {
						t.Logf("iter %d snapshot n%d: %v", iter, n, err)
					}
				}
			}(n)
		}
		// Mono single-key writers + local readers, matching the root
		// conformance mix (they load the event loops and the read fences).
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				node := stacks[i%3]
				key := fmt.Sprintf("mono/%d", i)
				var v int64
				for {
					select {
					case <-stop:
						return
					default:
					}
					v++
					ch := make(chan protocol.Result, 1)
					node.Engine.Submit(command.Add(key, 1), func(res protocol.Result) { ch <- res })
					select {
					case res := <-ch:
						if res.Err != nil {
							return
						}
					case <-time.After(15 * time.Second):
						stalled.Store(true)
						t.Errorf("iter %d mono writer %d: STALLED at %d", iter, i, v)
						return
					}
					if _, _, err := stacks[i%3].Reads.Read(rctx, key); err != nil && rctx.Err() == nil {
						t.Errorf("iter %d mono read %d: %v", iter, i, err)
						return
					}
				}
			}(i)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				node := stacks[w+1]
				for {
					select {
					case <-stop:
						return
					default:
					}
					tx, _ := batch.Pack([]command.Command{
						command.Add(accA, int64(1-2*w)),
						command.Add(accB, int64(2*w-1)),
					})
					ch := make(chan protocol.Result, 1)
					node.Engine.Submit(tx, func(res protocol.Result) { ch <- res })
					select {
					case res := <-ch:
						if res.Err != nil {
							t.Errorf("iter %d transfer %d: %v", iter, w, res.Err)
							return
						}
					case <-time.After(15 * time.Second):
						stalled.Store(true)
						t.Errorf("iter %d transfer %d: STALLED", iter, w)
						return
					}
				}
			}(w)
		}
		time.Sleep(300 * time.Millisecond)
		if r := stacks[0].Coordinator; r != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			if err := r.Resize(ctx, 6); err != nil {
				t.Errorf("iter %d resize: %v", iter, err)
			}
			cancel()
		}
		time.Sleep(500 * time.Millisecond)
		close(stop)
		rcancel()
		wg.Wait()
		if stalled.Load() || t.Failed() {
			for i, s := range stacks {
				co := s.Coordinator
				t.Logf("node %d: table pending=%d, epoch=%d resizing=%v queued=%d",
					i, s.Table.Pending(), co.Epoch(), co.Resizing(), co.QueuedCommands())
				for _, line := range co.DebugState() {
					t.Logf("node %d coord: %s", i, line)
				}
				for _, line := range s.Table.DebugDrainWaiters() {
					t.Logf("node %d %s", i, line)
				}
				detail := s.Table.PendingDetail()
				for _, line := range detail {
					if !strings.Contains(line, "epoch=1") || strings.Contains(line, "done=true") {
						t.Logf("node %d entry: %s", i, line)
					}
				}
				t.Logf("node %d: %d pending entries total", i, len(detail))
			}
			for _, s := range stacks {
				s.Stop()
			}
			net.Close()
			t.Fatalf("stall reproduced on iter %d", iter)
		}
		for _, s := range stacks {
			s.Stop()
		}
		net.Close()
	}
}
