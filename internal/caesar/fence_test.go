package caesar_test

// Fence (OpFence) barrier semantics: a fence conflicts with every command
// of its group, so all replicas must deliver it at the same cut of the
// group's order — each command lands entirely before or entirely after
// the fence, identically everywhere. This is the primitive the live
// rebalancing layer (internal/rebalance) builds its epoch switch on.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// orderRecorder logs the delivery order of one replica.
type orderRecorder struct {
	mu    sync.Mutex
	order []command.ID
	fence map[command.ID]bool
}

func (r *orderRecorder) ApplyAt(cmd command.Command, _ timestamp.Timestamp) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.order = append(r.order, cmd.ID)
	if cmd.Op == command.OpFence {
		r.fence[cmd.ID] = true
	}
	return nil
}

func (r *orderRecorder) snapshot() ([]command.ID, map[command.ID]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]command.ID(nil), r.order...), r.fence
}

// TestFenceCutsDeliveryOrderIdentically floods three replicas with
// conflicting and non-conflicting writes while fences are proposed
// mid-stream, then checks every replica delivered every command and split
// them identically around each fence.
func TestFenceCutsDeliveryOrderIdentically(t *testing.T) {
	const nodes = 3
	net := memnet.New(memnet.Config{Nodes: nodes, Jitter: 200 * time.Microsecond, Seed: 9})
	defer net.Close()

	recs := make([]*orderRecorder, nodes)
	engines := make([]*caesar.Replica, nodes)
	for i := range engines {
		recs[i] = &orderRecorder{fence: make(map[command.ID]bool)}
		engines[i] = caesar.New(net.Endpoint(timestamp.NodeID(i)), protocol.Sync(recs[i]), caesar.Config{HeartbeatInterval: -1})
		engines[i].Start()
		defer engines[i].Stop()
	}

	const perNode = 40
	var wg sync.WaitGroup
	results := make(chan error, nodes*(perNode+1))
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				key := fmt.Sprintf("k%d", i%7) // plenty of conflicts
				if i%5 == 0 {
					key = fmt.Sprintf("private-%d-%d", n, i)
				}
				done := make(chan protocol.Result, 1)
				engines[n].Submit(command.Put(key, []byte{byte(i)}), func(res protocol.Result) { done <- res })
				res := <-done
				results <- res.Err
				if i == perNode/2 {
					fdone := make(chan protocol.Result, 1)
					engines[n].Submit(command.Fence([]byte{byte(n)}), func(res protocol.Result) { fdone <- res })
					res := <-fdone
					results <- res.Err
				}
			}
		}(n)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("submission failed: %v", err)
		}
	}

	// Quiesce: remote deliveries trail the proposers' local callbacks.
	total := nodes * (perNode + 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, r := range recs {
			if order, _ := r.snapshot(); len(order) < total {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			break // let the assertions report the divergence
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every replica delivered the same command set...
	base, fences := recs[0].snapshot()
	if len(fences) != nodes {
		t.Fatalf("replica 0 saw %d fences, want %d", len(fences), nodes)
	}
	baseSet := make(map[command.ID]int, len(base))
	for i, id := range base {
		baseSet[id] = i
	}
	for n := 1; n < nodes; n++ {
		order, _ := recs[n].snapshot()
		if len(order) != len(base) {
			t.Fatalf("replica %d delivered %d commands, replica 0 delivered %d", n, len(order), len(base))
		}
		// ...and the same side of every fence for every command.
		pos := make(map[command.ID]int, len(order))
		for i, id := range order {
			if _, ok := baseSet[id]; !ok {
				t.Fatalf("replica %d delivered %v, unknown to replica 0", n, id)
			}
			pos[id] = i
		}
		for f := range fences {
			for id, p := range pos {
				if id == f {
					continue
				}
				before := p < pos[f]
				baseBefore := baseSet[id] < baseSet[f]
				if before != baseBefore {
					t.Fatalf("replica %d delivered %v on the other side of fence %v than replica 0", n, id, f)
				}
			}
		}
	}
}
