package m2paxos

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

type countApplier struct {
	mu    sync.Mutex
	total int
}

func (c *countApplier) ApplyAt(cmd command.Command, _ timestamp.Timestamp) []byte {
	c.mu.Lock()
	c.total++
	c.mu.Unlock()
	return nil
}

func (c *countApplier) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// TestDebugConcurrentStall reproduces the conformance stall with white-box
// state dumps on failure.
func TestDebugConcurrentStall(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 5, Jitter: 200 * time.Microsecond})
	defer net.Close()
	reps := make([]*Replica, 5)
	apps := make([]*countApplier, 5)
	for i := 0; i < 5; i++ {
		apps[i] = &countApplier{}
		reps[i] = New(net.Endpoint(timestamp.NodeID(i)), apps[i], Config{})
		reps[i].Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()

	const perNode = 40
	keys := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node + 1)))
			for j := 0; j < perNode; j++ {
				key := keys[rng.Intn(len(keys))]
				ch := make(chan protocol.Result, 1)
				reps[node].Submit(command.Put(key, []byte{byte(j)}), func(res protocol.Result) { ch <- res })
				select {
				case <-ch:
				case <-time.After(15 * time.Second):
					t.Errorf("node %d command %d timed out", node, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		dump(t, reps, keys)
		t.FailNow()
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, a := range apps {
			if a.Total() < 5*perNode {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, a := range apps {
		t.Logf("replica %d executed %d/%d", i, a.Total(), 5*perNode)
	}
	dump(t, reps, keys)
	t.Fatal("stalled")
}

// dump prints per-replica key state through the event loop (safe snapshot).
func dump(t *testing.T, reps []*Replica, keys []string) {
	for i, rep := range reps {
		rep := rep // go.mod says 1.21: the loop variable is shared
		ch := make(chan string, 1)
		rep.Inspect(func() { ch <- rep.dumpKeys(keys) })
		select {
		case s := <-ch:
			t.Logf("replica %d:\n%s", i, s)
		case <-time.After(2 * time.Second):
			t.Logf("replica %d: dump timed out (loop wedged?)", i)
		}
	}
}

// dumpKeys renders the state of keys; loop goroutine only.
func (r *Replica) dumpKeys(keys []string) string {
	s := ""
	for _, k := range keys {
		ks := r.keys[k]
		if ks == nil {
			continue
		}
		s += fmt.Sprintf("  key %q: role=%d ballot=%d(r%d,n%d) promised=%d(r%d,n%d) owner=%d queue=%d nextInst=%d execNext=%d\n",
			k, ks.role, ks.ballot, ks.ballot.round(), ks.ballot.node(),
			ks.promised, ks.promised.round(), ks.promised.node(),
			ks.owner, len(ks.queue), ks.nextInst, r.execNext[k])
		for ik, p := range r.pend {
			if ik.key == k {
				s += fmt.Sprintf("    pend inst=%d ballot=%d votes=%d cmd=%v\n", ik.inst, p.ballot, p.votes.Count(), p.cmd.ID)
			}
		}
		lo := r.execNext[k]
		for inst := lo; inst < lo+8; inst++ {
			if av, ok := r.accepted[instKey{k, inst}]; ok {
				s += fmt.Sprintf("    acc inst=%d ballot=%d committed=%v cmd=%v\n", inst, av.ballot, av.committed, av.cmd.ID)
			}
		}
	}
	return s
}
