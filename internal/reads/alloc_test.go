//go:build !race

package reads

import (
	"context"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// TestUnblockedReadAllocationBudget gates what a single-key read costs the
// read engine when nothing blocks it, on a sharded node (the commit table
// is bound): the key list, the touched group's key slice, the fence
// channel (header and buffer) and its callback, and the store's two
// snapshot results — 7. The commit table's settle check parks no waiter,
// channel or callback when no held transaction is in the way. (The race
// detector changes allocation counts, hence the build tag.)
func TestUnblockedReadAllocationBudget(t *testing.T) {
	store := kvstore.New()
	store.ApplyAt(command.Put("k", []byte("v")), timestamp.Timestamp{Seq: 1})
	e := New(store, nil)
	e.Attach(0, &instant{})
	e.SetTable(xshard.NewTable(xshard.TableConfig{Exec: store}, nil))
	ctx := context.Background()
	avg := testing.AllocsPerRun(200, func() {
		if val, _, err := e.Read(ctx, "k"); err != nil || string(val) != "v" {
			t.Fatalf("Read = %q, %v", val, err)
		}
	})
	if avg > 7 {
		t.Errorf("an unblocked read allocates %.1f, want <= 7", avg)
	}
}
