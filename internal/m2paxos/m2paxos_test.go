package m2paxos_test

import (
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/m2paxos"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/transport"
)

func factory(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
	return m2paxos.New(ep, app, m2paxos.Config{})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, factory)
}

func TestOwnershipForwarding(t *testing.T) {
	c := enginetest.NewCluster(t, 5, memnet.Config{}, factory)
	// Node 0 acquires the key, then node 3's command must be forwarded
	// to node 0 and still complete.
	if res := c.SubmitWait(t, 0, command.Put("owned", []byte("first")), 5*time.Second); res.Err != nil {
		t.Fatalf("acquire failed: %v", res.Err)
	}
	if res := c.SubmitWait(t, 3, command.Put("owned", []byte("second")), 5*time.Second); res.Err != nil {
		t.Fatalf("forwarded put failed: %v", res.Err)
	}
	c.WaitTotals(t, 2, 5*time.Second)
	c.CheckOrder(t, []string{"owned"})
}

func TestAcquisitionRace(t *testing.T) {
	// All five nodes hammer one fresh key concurrently: the embedded
	// acquisition race must converge to a single owner with every
	// command executed exactly once in the same order everywhere.
	c := enginetest.NewCluster(t, 5, memnet.Config{Jitter: 200 * time.Microsecond}, factory)
	const perNode = 20
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				c.SubmitWait(t, node, command.Put("contended", []byte{byte(j)}), 20*time.Second)
			}
		}(i)
	}
	wg.Wait()
	c.WaitTotals(t, 5*perNode, 20*time.Second)
	c.CheckOrder(t, []string{"contended"})
}
