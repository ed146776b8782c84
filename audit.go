package caesar

import (
	"context"
	"fmt"
	"time"

	"github.com/caesar-consensus/caesar/internal/audit"
)

// Cross-replica state auditing, the public face of internal/audit. Every
// node continuously folds its applied writes into per-group digests;
// Cluster.Audit (or a background auditor enabled with WithAuditInterval)
// gathers every live node's digest quotes and proves — or rules out —
// divergence. A proven divergence lands in the involved nodes' flight
// journals and caesar_audit_divergence_total counters and fires
// Options.OnDivergence. Multi-process deployments get the same check
// from cmd/caesar-audit against the servers' /auditz endpoints.

// Divergence is an audit's proof bundle: two replicas that provably
// applied the same multiset of commands for one consensus group yet hold
// different state.
type Divergence struct {
	// Kind is "state" (same commands, different resulting state) or
	// "apply-set" (replicas persistently idle at the same apply-stream
	// position over different command sets — a lost or duplicated apply).
	Kind string
	// Group, Epoch and Frontier locate the disagreement: the consensus
	// group, the routing epoch, and how many writes each replica had
	// folded at the quote.
	Group    int
	Epoch    uint32
	Frontier uint64
	// NodeA/NodeB name the disagreeing replicas; DigestA/DigestB are
	// their state digests (16 hex digits).
	NodeA, NodeB     string
	DigestA, DigestB string
}

// String renders the bundle for logs.
func (d Divergence) String() string {
	return fmt.Sprintf("%s divergence group=%d epoch=%d frontier=%d: %s digest=%s vs %s digest=%s",
		d.Kind, d.Group, d.Epoch, d.Frontier, d.NodeA, d.DigestA, d.NodeB, d.DigestB)
}

func fromDivergence(d audit.Divergence) Divergence {
	return Divergence{
		Kind: d.Kind, Group: int(d.Group), Epoch: d.Epoch, Frontier: d.Frontier,
		NodeA: d.NodeA, NodeB: d.NodeB,
		DigestA: d.DigestA.String(), DigestB: d.DigestB.String(),
	}
}

// AuditRound summarises one cluster-wide audit pass.
type AuditRound struct {
	// Nodes is how many nodes answered (crashed nodes are skipped).
	Nodes int
	// Groups is how many consensus groups reported digests.
	Groups int
	// Compared counts replica pairs whose group quotes were comparable
	// (provably the same applied command multiset); Matched counts those
	// whose digests agreed. Compared > 0 with Matched == Compared is a
	// positive equality proof, not a vacuous pass.
	Compared int
	Matched  int
	// Divergences lists the NEW divergences this round proved (a given
	// disagreement is reported once per cluster, not once per round).
	Divergences []Divergence
}

// WithAuditInterval runs a background cross-replica auditor over the
// cluster, gathering every live node's digests each interval. Proven
// divergences fire Options.OnDivergence on the involved nodes, land in
// their flight journals and bump their caesar_audit_divergence_total
// counters. d <= 0 leaves auditing manual (Cluster.Audit still works).
func WithAuditInterval(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.auditInterval = d }
}

// auditor lazily constructs the cluster's collector. Sources read
// through the cluster under its lock, so a node replaced by Restart is
// picked up and a crashed node reports unreachable instead of stale.
func (c *Cluster) auditor() *audit.Collector {
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	if c.collector != nil {
		return c.collector
	}
	sources := make([]audit.Source, len(c.nodes))
	for i := range c.nodes {
		idx := i
		sources[idx] = audit.Source{
			Name: fmt.Sprintf("p%d", idx),
			Fetch: func(ctx context.Context) (audit.Report, error) {
				n := c.Node(idx)
				if n.closed.Load() {
					return audit.Report{}, fmt.Errorf("node %d is down", idx)
				}
				return n.stk.AuditReport(), nil
			},
		}
	}
	c.collector = &audit.Collector{
		Sources:  sources,
		Interval: c.cfg.auditInterval,
		OnDivergence: func(d audit.Divergence) {
			c.nodeMu.RLock()
			defer c.nodeMu.RUnlock()
			for _, n := range c.nodes {
				self := fmt.Sprintf("p%d", int(n.id))
				if self == d.NodeA || self == d.NodeB {
					n.stk.NoteDivergence(d)
				}
			}
		},
	}
	return c.collector
}

// Audit runs one cross-replica audit round now: it gathers every live
// node's per-group digest quotes, compares the comparable ones, and
// returns the round's summary. Divergences are additionally raised on
// the involved nodes (flight journal, divergence counter,
// Options.OnDivergence), each disagreement once per cluster lifetime.
func (c *Cluster) Audit(ctx context.Context) AuditRound {
	col := c.auditor()
	reports, fresh := col.RunOnce(ctx)
	_, stats := audit.Diff(reports)
	round := AuditRound{
		Nodes: stats.Nodes, Groups: stats.Groups,
		Compared: stats.Compared, Matched: stats.Matched,
	}
	for _, d := range fresh {
		round.Divergences = append(round.Divergences, fromDivergence(d))
	}
	return round
}
