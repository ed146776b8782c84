package caesar_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	caesar "github.com/caesar-consensus/caesar"
)

// falsePositives keeps the background auditor's divergence callbacks
// across a conformance run; the auditing variants of the
// restart/rebalance/reads suites assert it stays empty — live traffic,
// crashes, replays and resizes must never be mistaken for divergence —
// and print every divergence it holds when it is not.
type falsePositives struct {
	mu   sync.Mutex
	seen []caesar.Divergence
}

// guard returns node options with the divergence callback armed. The
// callback only records (no *testing.T): the background collector may
// fire concurrently with the test body winding down.
func (fp *falsePositives) guard(opts caesar.Options) caesar.Options {
	opts.OnDivergence = func(d caesar.Divergence) {
		fp.mu.Lock()
		fp.seen = append(fp.seen, d)
		fp.mu.Unlock()
	}
	return opts
}

// requireCleanAudit polls the cluster's auditor until one round is a
// positive equality proof — comparable pairs exist and every one matched
// — and fails on any divergence, proven now or by the background
// collector during the run. Call it at the end of a conformance test,
// before the deferred Close.
func requireCleanAudit(t *testing.T, c *caesar.Cluster, fp *falsePositives) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadline := time.Now().Add(30 * time.Second)
	for {
		round := c.Audit(ctx)
		if len(round.Divergences) > 0 {
			t.Fatalf("audit proved divergence on a healthy cluster: %+v", round.Divergences)
		}
		if round.Compared > 0 && round.Matched == round.Compared {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("audit never produced a comparable round: %+v", round)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if n := len(fp.seen); n != 0 {
		var b strings.Builder
		for _, d := range fp.seen {
			fmt.Fprintf(&b, "\n  %s", d)
		}
		t.Fatalf("background auditor raised %d divergences on a healthy cluster:%s", n, b.String())
	}
}

// auditEvery is the background auditor cadence the conformance sweeps
// run with: fast enough to gather many rounds mid-chaos (crash windows,
// resize handoffs, replay), where a soundness bug would false-positive.
const auditEvery = 75 * time.Millisecond
