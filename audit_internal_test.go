package caesar

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/flight"
)

// TestAuditDivergenceE2E is the injected-corruption acceptance test: a
// 3-node sharded cluster takes traffic, quiesces, then one replica's
// stored state is silently flipped (the apply-path-bug simulation in
// kvstore.InjectDivergence). The next audit round must prove the
// divergence — naming exactly the corrupted group and the corrupted
// replica — and raise it on every surface: the returned round, the
// involved nodes' flight journals, their divergence counters, and the
// Options.OnDivergence callback. Whitebox (package caesar) because the
// injection hook reaches into the node's store on purpose.
func TestAuditDivergenceE2E(t *testing.T) {
	var mu sync.Mutex
	var bundles []Divergence
	c, err := NewLocalCluster(3,
		WithShards(2),
		WithNodeOptions(Options{OnDivergence: func(d Divergence) {
			mu.Lock()
			bundles = append(bundles, d)
			mu.Unlock()
		}}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const keys = 24
	for i := 0; i < keys; i++ {
		if _, err := c.Node(i%3).Propose(ctx, Put(fmt.Sprintf("audit-key-%d", i), []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Wait for the cluster to quiesce into a comparable, fully matched
	// state: every pair compared — 3 node pairs in each of the 2 groups,
	// so no replica is still applying a put its proposer acknowledged and
	// no frontier moves after the injection — and every digest equal. This
	// also proves the healthy path is not vacuous before we break it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		round := c.Audit(ctx)
		if len(round.Divergences) > 0 {
			t.Fatalf("false positive before injection: %+v", round.Divergences)
		}
		if round.Compared == 3*2 && round.Matched == round.Compared && round.Groups == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never quiesced into a comparable state: %+v", round)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Corrupt one key's applied state on node 1 only.
	const victim = "audit-key-7"
	wantGroup := int(c.nodes[1].store.InjectDivergence(victim))

	// One audit round — no settling, no retries — must prove it.
	round := c.Audit(ctx)
	if len(round.Divergences) == 0 {
		t.Fatalf("injected corruption not detected in one round: %+v", round)
	}
	for _, d := range round.Divergences {
		if d.Kind != "state" {
			t.Errorf("divergence kind = %q, want state: %+v", d.Kind, d)
		}
		if d.Group != wantGroup {
			t.Errorf("divergence flagged group %d, want %d: %+v", d.Group, wantGroup, d)
		}
		if d.NodeA != "p1" && d.NodeB != "p1" {
			t.Errorf("divergence does not involve the corrupted replica: %+v", d)
		}
		if d.DigestA == d.DigestB {
			t.Errorf("proof bundle carries equal digests: %+v", d)
		}
	}

	// The corrupted node raised it on every surface.
	if n := c.nodes[1].stk.AuditDivergences(); n == 0 {
		t.Error("corrupted node's divergence counter still zero")
	}
	var audited bool
	for _, e := range c.nodes[1].stk.Flight.Tail(64) {
		if e.Kind == flight.KindAudit {
			audited = true
		}
	}
	if !audited {
		t.Error("no audit event in the corrupted node's flight journal")
	}
	// Copy under the lock and let go of it: the re-audit below may raise a
	// fresh divergence, whose callback takes mu.
	mu.Lock()
	got := append([]Divergence(nil), bundles...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("Options.OnDivergence never fired")
	}
	for _, d := range got {
		if d.Group != wantGroup || d.Kind != "state" {
			t.Errorf("callback bundle wrong: %+v", d)
		}
	}

	// A healthy group must not have been flagged: re-audit and require the
	// other group still matches.
	round = c.Audit(ctx)
	if len(round.Divergences) != 0 {
		t.Errorf("same divergence re-raised: %+v", round.Divergences)
	}
	if round.Matched == 0 {
		t.Errorf("healthy group no longer matching: %+v", round)
	}
}
