package caesar

// Invariant tests mapped to the TLA+ specification the paper model-checked
// (Appendix B): after a conflicting workload quiesces, the stable tuples
// across all replicas must satisfy
//
//	Agreement:      a command carries the same final timestamp on every
//	                replica that stabilised it (Theorem 2);
//	GraphInvariant: for stable conflicting commands, the one with the
//	                lower timestamp appears in the predecessor set of the
//	                higher one (Theorem 1). Loop-breaking only ever prunes
//	                HIGHER-timestamped entries from a predecessor set, so
//	                the property remains observable on the final state.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// tupleSnapshot is one replica's stable view of one command.
type tupleSnapshot struct {
	ts   timestamp.Timestamp
	pred []command.ID
	cmd  command.Command
}

// snapshotHistories gathers every stable record from every replica.
func snapshotHistories(c *cluster) []map[command.ID]tupleSnapshot {
	out := make([]map[command.ID]tupleSnapshot, len(c.replicas))
	for i, rep := range c.replicas {
		ch := make(chan map[command.ID]tupleSnapshot, 1)
		rep := rep // go.mod says 1.21: the loop variable is shared
		rep.Inspect(func() {
			snap := make(map[command.ID]tupleSnapshot, len(rep.hist.recs))
			for id, rec := range rep.hist.recs {
				if rec.status == StatusStable {
					snap[id] = tupleSnapshot{ts: rec.ts, pred: slices.Clone(rec.pred), cmd: rec.cmd}
				}
			}
			ch <- snap
		})
		out[i] = <-ch
	}
	return out
}

func TestTheoremInvariantsUnderConflicts(t *testing.T) {
	cfg := Config{HeartbeatInterval: -1, GCInterval: -1} // keep all tuples
	c := newCluster(t, 5, memnet.Config{Jitter: 250 * time.Microsecond, Seed: 17}, cfg)

	const perNode = 60
	keys := []string{"x", "y", "z"}
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node + 23)))
			outstanding := make(chan struct{}, 4)
			var inner sync.WaitGroup
			for j := 0; j < perNode; j++ {
				outstanding <- struct{}{}
				inner.Add(1)
				key := keys[rng.Intn(len(keys))]
				c.replicas[node].Submit(command.Put(key, []byte{byte(j)}), func(protocol.Result) {
					<-outstanding
					inner.Done()
				})
			}
			inner.Wait()
		}(i)
	}
	wg.Wait()
	c.waitTotals(t, 5*perNode, 30*time.Second, nil)

	snaps := snapshotHistories(c)

	// Agreement: identical final timestamps everywhere.
	ref := snaps[0]
	for i := 1; i < len(snaps); i++ {
		for id, tup := range snaps[i] {
			if refTup, ok := ref[id]; ok && refTup.ts != tup.ts {
				t.Fatalf("Agreement violated for %v: node0 ts=%v node%d ts=%v",
					id, refTup.ts, i, tup.ts)
			}
		}
	}

	// Uniqueness: no two distinct commands share a timestamp on any node.
	for i, snap := range snaps {
		seen := make(map[timestamp.Timestamp]command.ID, len(snap))
		for id, tup := range snap {
			if other, dup := seen[tup.ts]; dup {
				t.Fatalf("node %d: commands %v and %v share timestamp %v", i, id, other, tup.ts)
			}
			seen[tup.ts] = id
		}
	}

	// GraphInvariant: lower-timestamped conflicting command ∈ pred of the
	// higher one, on every node.
	for i, snap := range snaps {
		checked := 0
		for id1, t1 := range snap {
			for id2, t2 := range snap {
				if id1 == id2 || !t1.cmd.Conflicts(t2.cmd) {
					continue
				}
				lo, hi := t1, t2
				loID := id1
				if t2.ts.Less(t1.ts) {
					lo, hi = t2, t1
					loID = id2
				}
				_ = lo
				if !command.ContainsID(hi.pred, loID) {
					t.Fatalf("node %d: GraphInvariant violated: %v (ts %v) missing from pred of the higher-timestamped conflicting command (ts %v)",
						i, loID, lo.ts, hi.ts)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("node %d: no conflicting pairs checked — workload broken", i)
		}
	}
}
