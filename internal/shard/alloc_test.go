//go:build !race

package shard

import (
	"fmt"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
)

// TestSubEndpointSendAllocationBudget: a shard endpoint wraps each payload
// in a slot of an envelope chunk, so a Send allocates nothing on average.
// (The race detector changes allocation counts, hence the build tag.)
func TestSubEndpointSendAllocationBudget(t *testing.T) {
	const runs = 1000
	rec := &recordingEP{sent: make([]any, 0, 2*(runs+1))}
	ep := NewMux(rec, 1).Attach(0, 0)
	msg := new(int)
	if avg := testing.AllocsPerRun(runs, func() {
		ep.Send(1, msg)
		ep.Broadcast(msg)
	}); avg != 0 {
		t.Errorf("Send and Broadcast allocate %.2f per call pair, want 0", avg)
	}
}

// TestHomeAllocatesNothing: probing a command whose keys span two shards
// costs nothing; only Route builds the ErrCrossShard message it reports.
func TestHomeAllocatesNothing(t *testing.T) {
	r := NewRouter(4)
	a := "alpha"
	b := ""
	for i := 0; b == ""; i++ {
		if k := fmt.Sprintf("k-%d", i); r.Shard(k) != r.Shard(a) {
			b = k
		}
	}
	cross := command.Command{Op: command.OpBatch, Key: a, ExtraKeys: []string{b}}
	var ok bool
	if avg := testing.AllocsPerRun(200, func() { _, ok = r.Home(cross) }); avg != 0 || ok {
		t.Errorf("Home of a two-shard command: %.1f allocs and ok=%v, want 0 and false", avg, ok)
	}
}
