package audit

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Divergence is the auditor's proof bundle: two named replicas whose
// quotes for one group are comparable yet disagree.
type Divergence struct {
	// Kind is "state" (same command multiset, different resulting state —
	// proven by one gather) or "apply-set" (replicas idle at the same
	// frontier quoting different command multisets across consecutive
	// rounds — a lost or duplicated apply).
	Kind string `json:"kind"`
	// Group, Epoch, Frontier locate the disagreement.
	Group    int32  `json:"group"`
	Epoch    uint32 `json:"epoch"`
	Frontier uint64 `json:"frontier"`
	// NodeA/NodeB name the disagreeing replicas; DigestA/DigestB and
	// IDFoldA/IDFoldB are their quotes.
	NodeA   string `json:"node_a"`
	NodeB   string `json:"node_b"`
	DigestA Digest `json:"digest_a"`
	DigestB Digest `json:"digest_b"`
	IDFoldA Digest `json:"idfold_a"`
	IDFoldB Digest `json:"idfold_b"`
}

// String renders the bundle for logs and admin output.
func (d Divergence) String() string {
	return fmt.Sprintf("%s divergence group=%d epoch=%d frontier=%d: %s digest=%v idfold=%v vs %s digest=%v idfold=%v",
		d.Kind, d.Group, d.Epoch, d.Frontier, d.NodeA, d.DigestA, d.IDFoldA, d.NodeB, d.DigestB, d.IDFoldB)
}

// key dedupes repeat detections of the same disagreement across rounds.
func (d Divergence) key() string {
	return fmt.Sprintf("%s/%d/%d/%d/%s/%s", d.Kind, d.Group, d.Epoch, d.Frontier, d.NodeA, d.NodeB)
}

// DiffStats summarises one alignment pass.
type DiffStats struct {
	// Nodes is how many reports carried usable state (no fetch error).
	Nodes int `json:"nodes"`
	// Groups is how many distinct groups appeared across all reports.
	Groups int `json:"groups"`
	// Compared counts node pairs whose quotes for a group were comparable
	// (same epoch, frontier and idfold — provably the same command
	// multiset).
	Compared int `json:"compared"`
	// Matched counts compared pairs whose digests agreed.
	Matched int `json:"matched"`
}

// Diff aligns the reports' per-group quotes and returns every proven
// state divergence. Only quotes with identical (epoch, frontier, idfold)
// are compared: such replicas applied the exact same command multiset,
// so unequal digests prove the apply path produced different state.
// Quotes at different frontiers — or equal frontiers over different
// command sets (delivery still in flight) — are skipped, never flagged,
// which is what makes the auditor sound under live traffic.
func Diff(reports []Report) ([]Divergence, DiffStats) {
	var stats DiffStats
	type quote struct {
		node string
		gs   GroupState
	}
	byGroup := map[int32][]quote{}
	for _, rep := range reports {
		if rep.Err != "" {
			continue
		}
		stats.Nodes++
		for _, gs := range rep.Groups {
			byGroup[gs.Group] = append(byGroup[gs.Group], quote{rep.Node, gs})
		}
	}
	stats.Groups = len(byGroup)
	groups := make([]int32, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	var divs []Divergence
	for _, g := range groups {
		quotes := byGroup[g]
		for i := 0; i < len(quotes); i++ {
			for j := i + 1; j < len(quotes); j++ {
				a, b := quotes[i].gs, quotes[j].gs
				if a.Epoch != b.Epoch || a.Frontier != b.Frontier || a.IDFold != b.IDFold {
					continue
				}
				stats.Compared++
				if a.Digest == b.Digest {
					stats.Matched++
					continue
				}
				divs = append(divs, Divergence{
					Kind: "state", Group: g, Epoch: a.Epoch, Frontier: a.Frontier,
					NodeA: quotes[i].node, NodeB: quotes[j].node,
					DigestA: a.Digest, DigestB: b.Digest,
					IDFoldA: a.IDFold, IDFoldB: b.IDFold,
				})
			}
		}
	}
	return divs, stats
}

// applySetSuspects finds node pairs idle at the same frontier for a group
// yet quoting different command multisets. One sighting is normal (a
// command decided on one replica and not yet on the other); the Collector
// only promotes a suspect to an "apply-set" divergence when the exact
// same disagreeing quotes persist across consecutive rounds.
func applySetSuspects(reports []Report) []Divergence {
	type quote struct {
		node string
		gs   GroupState
	}
	byGroup := map[int32][]quote{}
	for _, rep := range reports {
		if rep.Err != "" {
			continue
		}
		for _, gs := range rep.Groups {
			byGroup[gs.Group] = append(byGroup[gs.Group], quote{rep.Node, gs})
		}
	}
	var out []Divergence
	for g, quotes := range byGroup {
		for i := 0; i < len(quotes); i++ {
			for j := i + 1; j < len(quotes); j++ {
				a, b := quotes[i].gs, quotes[j].gs
				if a.Epoch != b.Epoch || a.Frontier != b.Frontier || a.IDFold == b.IDFold {
					continue
				}
				out = append(out, Divergence{
					Kind: "apply-set", Group: g, Epoch: a.Epoch, Frontier: a.Frontier,
					NodeA: quotes[i].node, NodeB: quotes[j].node,
					DigestA: a.Digest, DigestB: b.Digest,
					IDFoldA: a.IDFold, IDFoldB: b.IDFold,
				})
			}
		}
	}
	return out
}

// suspectKey identifies an exact disagreeing quote pair, digests
// included: if either node applies anything new between rounds the key
// changes and the suspicion resets.
func suspectKey(d Divergence) string {
	return fmt.Sprintf("%d/%d/%d/%s=%v,%v/%s=%v,%v",
		d.Group, d.Epoch, d.Frontier, d.NodeA, d.DigestA, d.IDFoldA, d.NodeB, d.DigestB, d.IDFoldB)
}

// Collector periodically gathers every node's audit report and raises
// divergences across nodes, so it keeps its own loop rather than a node's
// maintenance tick: Start spawns it, Stop joins it, RunOnce is testable.
type Collector struct {
	// Sources name the nodes to audit.
	Sources []Source
	// Interval is the gather period (default 2s).
	Interval time.Duration
	// OnDivergence, if set, receives each newly detected divergence (a
	// given disagreement is raised once, not once per round).
	OnDivergence func(Divergence)

	rounds      atomic.Uint64
	divergences atomic.Uint64

	mu       sync.Mutex
	raised   map[string]bool
	suspects map[string]Divergence

	stop chan struct{}
	done chan struct{}
}

// Rounds returns how many gather rounds have completed.
func (c *Collector) Rounds() uint64 { return c.rounds.Load() }

// Divergences returns the total divergences raised.
func (c *Collector) Divergences() uint64 { return c.divergences.Load() }

// RunOnce performs one gather-and-align round and returns the reports
// plus any NEW divergences (previously raised disagreements are not
// repeated). It also feeds the apply-set suspect tracker: an idfold
// mismatch at an identical frontier that persists across two consecutive
// rounds is promoted to an "apply-set" divergence.
func (c *Collector) RunOnce(ctx context.Context) ([]Report, []Divergence) {
	reports := Collect(ctx, c.Sources)
	divs, _ := Diff(reports)
	c.rounds.Add(1)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.raised == nil {
		c.raised = map[string]bool{}
	}
	// Promote apply-set suspects seen in the previous round too.
	next := map[string]Divergence{}
	for _, d := range applySetSuspects(reports) {
		k := suspectKey(d)
		if _, seenLastRound := c.suspects[k]; seenLastRound {
			divs = append(divs, d)
		} else {
			next[k] = d
		}
	}
	c.suspects = next

	fresh := divs[:0]
	for _, d := range divs {
		if c.raised[d.key()] {
			continue
		}
		c.raised[d.key()] = true
		fresh = append(fresh, d)
		c.divergences.Add(1)
		if c.OnDivergence != nil {
			c.OnDivergence(d)
		}
	}
	return reports, fresh
}

// Start launches the gather loop. Safe to call once; Stop joins it.
func (c *Collector) Start() {
	if c.stop != nil {
		return
	}
	interval := c.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				c.RunOnce(ctx)
				cancel()
			}
		}
	}()
}

// Stop halts the gather loop and waits for it to exit.
func (c *Collector) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
}
