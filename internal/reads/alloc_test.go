//go:build !race

package reads

import (
	"context"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// TestUnblockedReadAllocationBudget gates what a single-key read costs the
// read engine when nothing blocks it, with the commit table bound as on
// every node: nothing. The key list, the touched group and its key slice,
// the fence channel and the one-value result are the pooled read state's,
// the fence completes into that state, and the store snapshots into it.
// The commit table's settle check parks no waiter, channel or callback
// when no held transaction is in the way. (The race detector changes
// allocation counts, hence the build tag.)
func TestUnblockedReadAllocationBudget(t *testing.T) {
	store := kvstore.New()
	store.ApplyAt(command.Put("k", []byte("v")), timestamp.Timestamp{Seq: 1})
	e := bound(store, nil)
	e.Attach(0, &instant{})
	ctx := context.Background()
	avg := testing.AllocsPerRun(200, func() {
		if val, _, err := e.Read(ctx, "k"); err != nil || string(val) != "v" {
			t.Fatalf("Read = %q, %v", val, err)
		}
	})
	if avg != 0 {
		t.Errorf("an unblocked read allocates %.1f, want 0", avg)
	}
}

// TestUnblockedReadTxAllocationBudget: a snapshot read across two groups
// that nothing blocks allocates the two slices it returns, and nothing
// else.
func TestUnblockedReadTxAllocationBudget(t *testing.T) {
	store := kvstore.New()
	router := shard.NewRouter(2)
	keys := twoGroupKeys(router)
	store.ApplyAt(command.Put(keys[0], []byte("x")), timestamp.Timestamp{Seq: 1})
	store.ApplyAt(command.Put(keys[1], []byte("y")), timestamp.Timestamp{Seq: 1, Node: 1})
	e := bound(store, nil)
	e.router = func() shard.Router { return router }
	e.Attach(0, &instant{fakeGroup{node: 0}})
	e.Attach(1, &instant{fakeGroup{node: 1}})
	ctx := context.Background()
	avg := testing.AllocsPerRun(200, func() {
		if vals, _, err := e.ReadTx(ctx, keys); err != nil || string(vals[0]) != "x" || string(vals[1]) != "y" {
			t.Fatalf("ReadTx = %q, %v", vals, err)
		}
	})
	if avg > 2 {
		t.Errorf("an unblocked two-group ReadTx allocates %.1f, want <= 2 (its results)", avg)
	}
}
