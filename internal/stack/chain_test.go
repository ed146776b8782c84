package stack_test

import (
	"fmt"
	"math"
	"testing"

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
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// TestChainCarriesDecidedTimestamps pins what the statically typed apply
// chain exists for, on every chain shape the stack composes: the
// timestamp a group's engine decided for a command is the version stamp
// the store records for its write, and all writes of one multi-key unit —
// a cross-group transaction executed by the commit table at the merged
// (max) piece timestamp, or a batch whose keys share a group — carry one
// stamp. A layer that forwarded a command without its timestamp would
// stamp the write zero and fail here. It also pins that no chain the stack
// composes is a synchronous layer (protocol.TimestampedApplier): every one
// holds the rebalance gate, so it completes through ApplyDeferred.
func TestChainCarriesDecidedTimestamps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		durable bool
	}{
		{"one-group/memory", 1, false},
		{"one-group/durable", 1, true},
		{"four-group/memory", 4, false},
		{"four-group/durable", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes = 3
			net := memnet.New(memnet.Config{Nodes: nodes})
			defer net.Close()
			// Node 0's engines record into one ring per group (command IDs
			// are only unique within a group).
			rings := make([]*trace.Ring, tc.shards)
			for g := range rings {
				rings[g] = trace.NewRing(256)
			}
			dir := t.TempDir()
			// synchronous records, per group of node 0, whether the chain
			// BuildEngine received is also a synchronous layer.
			synchronous := make([]bool, tc.shards)
			stacks := make([]*stack.Stack, nodes)
			for i := range stacks {
				node := i
				cfg := stack.Config{
					Shards:    tc.shards,
					Rebalance: true,
					Build: func(g int, sep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed, met *metrics.Recorder, ctd *contend.Group) protocol.Engine {
						ccfg := caesar.Config{HeartbeatInterval: -1}
						if node == 0 {
							ccfg.Trace = rings[g]
							_, synchronous[g] = app.(protocol.TimestampedApplier)
						}
						return stack.CaesarEngine(ccfg)(g, sep, app, seed, met, ctd)
					},
				}
				if tc.durable {
					cfg.DataDir = fmt.Sprintf("%s/n%d", dir, i)
				}
				stk, err := stack.Build(net.Endpoint(timestamp.NodeID(i)), cfg)
				if err != nil {
					t.Fatalf("Build node %d: %v", i, err)
				}
				stacks[i] = stk
			}
			for _, s := range stacks {
				s.Start()
				defer s.Stop()
			}
			for g, got := range synchronous {
				if got {
					t.Fatalf("group %d's chain is a protocol.TimestampedApplier, want one that completes through ApplyDeferred", g)
				}
			}
			router := shard.NewRouter(tc.shards)
			// keyIn returns a fresh key homed in group g.
			next := 0
			keyIn := func(g int) string {
				for {
					k := testKey(next)
					next++
					if router.Shard(k) == g {
						return k
					}
				}
			}
			// decided returns the timestamp of the latest decision node 0's
			// group-g engine took.
			decided := func(g int) timestamp.Timestamp {
				var ts timestamp.Timestamp
				for _, e := range rings[g].Snapshot() {
					if e.Kind == trace.KindStable {
						ts = e.Time
					}
				}
				if ts.IsZero() {
					t.Fatalf("group %d recorded no decision", g)
				}
				return ts
			}
			store := stacks[0].Store

			put := keyIn(0)
			submit(t, stacks[0], command.Put(put, []byte("v")))
			requireStamp(t, store, put, decided(0))

			// One unit writing two keys: two groups when there are two.
			g2 := tc.shards - 1
			k1, k2 := keyIn(0), keyIn(g2)
			unit, err := batch.Pack([]command.Command{command.Put(k1, []byte("x")), command.Put(k2, []byte("y"))})
			if err != nil {
				t.Fatal(err)
			}
			submit(t, stacks[0], unit)
			merged := timestamp.Max(decided(0), decided(g2))
			requireStamp(t, store, k1, merged)
			requireStamp(t, store, k2, merged)
		})
	}
}

// requireStamp asserts key's single write is version-stamped exactly at
// want: visible to a read at want, invisible to a read just below it.
func requireStamp(t *testing.T, store *kvstore.Store, key string, want timestamp.Timestamp) {
	t.Helper()
	if _, present, covered := store.GetAt(key, 0, want); !present || !covered {
		t.Fatalf("%q not visible at its decided timestamp %v (present=%v covered=%v): stamped later", key, want, present, covered)
	}
	below := timestamp.Timestamp{Seq: want.Seq, Node: want.Node - 1} // the largest timestamp under want
	if want.Node == 0 {
		below = timestamp.Timestamp{Seq: want.Seq - 1, Node: math.MaxInt32}
	}
	if _, present, _ := store.GetAt(key, 0, below); present {
		t.Fatalf("%q already visible at %v, below its decided timestamp %v: stamped earlier (zero?)", key, below, want)
	}
}
