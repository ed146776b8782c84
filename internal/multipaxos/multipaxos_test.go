package multipaxos_test

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/multipaxos"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/transport"
)

func factory(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
	return multipaxos.New(ep, app, multipaxos.Config{Leader: 0})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, factory)
}

func TestFollowerSubmissionForwards(t *testing.T) {
	c := enginetest.NewCluster(t, 5, memnet.Config{}, factory)
	res := c.SubmitWait(t, 3, command.Put("k", []byte("via-follower")), 5*time.Second)
	if res.Err != nil {
		t.Fatalf("forwarded submit failed: %v", res.Err)
	}
	c.WaitTotals(t, 1, 5*time.Second)
}

func TestTotalOrderAcrossKeys(t *testing.T) {
	// Multi-Paxos orders everything, even non-conflicting commands: the
	// per-key logs must match and so must the interleaving. We check the
	// per-key property (the stronger one is implied by a single log).
	c := enginetest.NewCluster(t, 5, memnet.Config{}, factory)
	for i := 0; i < 20; i++ {
		key := []string{"x", "y"}[i%2]
		c.SubmitWait(t, i%5, command.Put(key, []byte{byte(i)}), 5*time.Second)
	}
	c.WaitTotals(t, 20, 5*time.Second)
	c.CheckOrder(t, []string{"x", "y"})
}

func TestRemoteLeaderLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("geo latencies are slow")
	}
	// Leader in Mumbai (node 4): a Virginia client pays the long
	// forwarding hop — the Multi-Paxos-IN configuration of Fig 7.
	f := func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		return multipaxos.New(ep, app, multipaxos.Config{Leader: 4})
	}
	c := enginetest.NewCluster(t, 5, memnet.Config{Delay: memnet.GeoDelay(0.02)}, f)
	start := time.Now()
	c.SubmitWait(t, 0, command.Put("k", nil), 10*time.Second)
	// Floor: VA→IN forward (93ms·0.02) + IN quorum RTT (112ms·0.02) +
	// commit back to VA (93ms·0.02) ≈ 5.9ms.
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("remote-leader latency %v below geographic floor", d)
	}
}
