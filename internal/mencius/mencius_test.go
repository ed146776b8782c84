package mencius_test

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/mencius"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/transport"
)

func factory(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
	return mencius.New(ep, app, mencius.Config{})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, factory)
}

func TestSkipsUnblockIdleNodes(t *testing.T) {
	// Only node 0 proposes; execution requires skip announcements from
	// the four idle nodes. If skips were broken this would deadlock.
	c := enginetest.NewCluster(t, 5, memnet.Config{}, factory)
	for i := 0; i < 10; i++ {
		if res := c.SubmitWait(t, 0, command.Put("k", []byte{byte(i)}), 5*time.Second); res.Err != nil {
			t.Fatalf("put %d failed: %v", i, res.Err)
		}
	}
	c.WaitTotals(t, 10, 5*time.Second)
	c.CheckOrder(t, []string{"k"})
}

func TestPacedBySlowestNode(t *testing.T) {
	if testing.Short() {
		t.Skip("geo latencies are slow")
	}
	// With geo delays, a Virginia command in any slot past the first
	// cannot execute before Mumbai's skip announcement arrives: one-way
	// VA→IN plus one-way IN→VA ≈ RTT(VA,IN) = 186ms (scaled ×0.02 ≈
	// 3.7ms). This is the "performs as the slowest node" behaviour of
	// §II. (Slot 0 has no lower slots, so only the second command pays
	// the full price.)
	c := enginetest.NewCluster(t, 5, memnet.Config{Delay: memnet.GeoDelay(0.02)}, factory)
	c.SubmitWait(t, 0, command.Put("k", nil), 10*time.Second)
	start := time.Now()
	c.SubmitWait(t, 0, command.Put("k", nil), 10*time.Second)
	if d := time.Since(start); d < 3500*time.Microsecond {
		t.Fatalf("latency %v below the slowest-node floor", d)
	}
}
