// Package harness runs the paper's experiments: it builds a five-site
// cluster over the simulated WAN (internal/memnet with the paper's EC2
// round-trip times), drives the §VI key-value workload against a chosen
// protocol, and reports the measurements each figure plots.
//
// Latencies are measured in scaled wall-clock time and rescaled back to
// paper units (divide by Scale), so a run at Scale 0.1 finishes 10× faster
// while preserving every delay ratio. Throughput is reported as measured.
//
// That is all it does: Figures 6–12, each protocol as one engine per node
// over an in-memory store. The sharded, durable deployment this repository
// grew around the protocol is measured by bench/ (BENCHMARK.json) over
// real TCP and real fsync, and CI keeps this package from importing it.
package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/epaxos"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/m2paxos"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/mencius"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/multipaxos"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/workload"
)

// Protocol names the consensus engine under test.
type Protocol string

// The competitors of §VI. Multi-Paxos is deployed twice: leader close to a
// quorum (Ireland) and leader far from one (Mumbai).
const (
	Caesar       Protocol = "caesar"
	CaesarNoWait Protocol = "caesar-nowait" // ablation: wait condition off
	EPaxos       Protocol = "epaxos"
	M2Paxos      Protocol = "m2paxos"
	Mencius      Protocol = "mencius"
	MultiPaxosIR Protocol = "multipaxos-ir"
	MultiPaxosIN Protocol = "multipaxos-in"
)

// jitter is the per-message jitter before scaling.
const jitter = 2 * time.Millisecond

// Options configures one experiment run.
type Options struct {
	Protocol Protocol
	// Nodes is the cluster size (default 5, the paper's deployment).
	Nodes int
	// Scale shrinks the WAN latencies (default 0.05).
	Scale float64
	// ConflictPct is the workload's conflict percentage.
	ConflictPct float64
	// ClientsPerNode: closed-loop clients co-located with each node
	// (default 10, the paper's latency setup).
	ClientsPerNode int
	// Duration is the measurement window (default 3s); Warmup precedes
	// it (default 1s).
	Duration time.Duration
	Warmup   time.Duration
	// Batching enables proposer-side batching (Fig 9 bottom).
	Batching bool
	// Seed makes the run reproducible.
	Seed int64
	// CrashNode ≥ 0 crashes that node CrashAfter into the measurement
	// (Fig 12); SampleInterval > 0 records a throughput timeline.
	CrashNode      int
	CrashAfter     time.Duration
	SampleInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 5
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.ClientsPerNode == 0 {
		o.ClientsPerNode = 10
	}
	if o.Duration == 0 {
		o.Duration = 3 * time.Second
	}
	if o.Warmup == 0 {
		o.Warmup = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.CrashNode == 0 && o.CrashAfter == 0 {
		o.CrashNode = -1
	}
	return o
}

// SiteResult is one site's column in the latency figures, rescaled to
// paper units.
type SiteResult struct {
	Site        string
	MeanLatency time.Duration
	Count       int64
	// MeanWait is CAESAR's mean wait-condition time at this site
	// (Fig 11b).
	MeanWait time.Duration
}

// TimelinePoint is one Fig 12 sample.
type TimelinePoint struct {
	At  time.Duration
	Tps float64
}

// Result aggregates one run's measurements.
type Result struct {
	Protocol    Protocol
	ConflictPct float64
	Sites       []SiteResult
	// Throughput is completed commands per second over the window.
	Throughput float64
	// Fast/slow decision split (Fig 10).
	FastDecisions, SlowDecisions int64
	// Phase fractions of total leader-observed latency (Fig 11a).
	ProposeFrac, RetryFrac, DeliverFrac float64
	Timeline                            []TimelinePoint
	// Failed counts client commands that timed out or errored.
	Failed int64
}

// SlowRatio returns the slow-decision fraction.
func (r Result) SlowRatio() float64 {
	total := r.FastDecisions + r.SlowDecisions
	if total == 0 {
		return 0
	}
	return float64(r.SlowDecisions) / float64(total)
}

// engineSet tracks live engines for client failover.
type engineSet struct {
	mu      sync.RWMutex
	engines []protocol.Engine
	down    []bool
}

var _ workload.Engines = (*engineSet)(nil)

func (s *engineSet) Engine(node int) protocol.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down[node] {
		return nil
	}
	return s.engines[node]
}

func (s *engineSet) Nodes() int { return len(s.engines) }

func (s *engineSet) crash(node int) protocol.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[node] = true
	return s.engines[node]
}

// build constructs and returns the cluster's engines, one per node: the
// protocol under test over the batch-unpacking applier of a fresh
// in-memory store, on the node's memnet endpoint, behind the proposer-side
// batcher when o.Batching. Crash runs (Fig 12) turn on the failure
// detector of the two protocols that recover a crashed leader's commands.
func build(o Options, net *memnet.Network, mets []*metrics.Recorder) []protocol.Engine {
	engines := make([]protocol.Engine, o.Nodes)
	crashRun := o.CrashNode >= 0
	for i := range engines {
		ep := net.Endpoint(timestamp.NodeID(i))
		app := batch.NewApplier(kvstore.New())
		met := mets[i]
		var eng protocol.Engine
		switch o.Protocol {
		case Caesar, CaesarNoWait:
			cfg := caesar.Config{Metrics: met, DisableWait: o.Protocol == CaesarNoWait}
			if crashRun {
				cfg.HeartbeatInterval = 50 * time.Millisecond
				cfg.SuspectTimeout = 500 * time.Millisecond
				cfg.RecoveryBackoff = 100 * time.Millisecond
			} else {
				cfg.HeartbeatInterval = -1
			}
			eng = caesar.New(ep, protocol.Sync(app), cfg)
		case EPaxos:
			cfg := epaxos.Config{Metrics: met}
			if crashRun {
				cfg.HeartbeatInterval = 50 * time.Millisecond
				cfg.SuspectTimeout = 500 * time.Millisecond
				cfg.RecoveryBackoff = 100 * time.Millisecond
			} else {
				cfg.HeartbeatInterval = -1
			}
			eng = epaxos.New(ep, app, cfg)
		case M2Paxos:
			eng = m2paxos.New(ep, app, m2paxos.Config{Metrics: met})
		case Mencius:
			eng = mencius.New(ep, app, mencius.Config{Metrics: met})
		case MultiPaxosIR:
			eng = multipaxos.New(ep, app, multipaxos.Config{Leader: 3, Metrics: met})
		case MultiPaxosIN:
			eng = multipaxos.New(ep, app, multipaxos.Config{Leader: 4, Metrics: met})
		default:
			panic(fmt.Sprintf("harness: unknown protocol %q", o.Protocol))
		}
		if o.Batching {
			eng = batch.Wrap(eng, batch.Config{})
		}
		engines[i] = eng
	}
	return engines
}

// Run executes one experiment and returns its measurements.
func Run(o Options) Result {
	o = o.withDefaults()
	net := memnet.New(memnet.Config{
		Nodes:  o.Nodes,
		Delay:  memnet.GeoDelay(o.Scale),
		Jitter: time.Duration(float64(jitter) * o.Scale),
		Seed:   o.Seed,
	})
	defer net.Close()

	mets := make([]*metrics.Recorder, o.Nodes)
	for i := range mets {
		mets[i] = metrics.NewRecorder()
	}
	engines := build(o, net, mets)
	set := &engineSet{engines: engines, down: make([]bool, o.Nodes)}
	for _, eng := range engines {
		eng.Start()
	}
	defer func() {
		for i, eng := range engines {
			if !set.down[i] {
				eng.Stop()
			}
		}
	}()

	// Clients.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cmdTimeout := 10 * time.Second
	stats := &workload.ClientStats{}
	var wg sync.WaitGroup
	for node := 0; node < o.Nodes; node++ {
		for c := 0; c < o.ClientsPerNode; c++ {
			wg.Add(1)
			gen := workload.NewGenerator(workload.Config{
				ConflictPct: o.ConflictPct,
				Seed:        o.Seed + int64(node*1000+c),
			}, fmt.Sprintf("n%dc%d", node, c))
			go func(node int, gen *workload.Generator) {
				defer wg.Done()
				workload.RunClosedLoop(ctx, set, node, gen, cmdTimeout, stats)
			}(node, gen)
		}
	}

	time.Sleep(o.Warmup)
	for _, m := range mets {
		m.Reset()
	}
	start := time.Now()
	completedAtStart := stats.Completed()

	// Optional crash + timeline sampling (Fig 12).
	var timeline []TimelinePoint
	var tlMu sync.Mutex
	sampleDone := make(chan struct{})
	if o.SampleInterval > 0 {
		go func() {
			defer close(sampleDone)
			tick := time.NewTicker(o.SampleInterval)
			defer tick.Stop()
			last := completedAtStart
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-tick.C:
					cur := stats.Completed()
					tps := float64(cur-last) / o.SampleInterval.Seconds()
					last = cur
					tlMu.Lock()
					timeline = append(timeline, TimelinePoint{At: now.Sub(start), Tps: tps})
					tlMu.Unlock()
				}
			}
		}()
	} else {
		close(sampleDone)
	}
	if o.CrashNode >= 0 {
		go func() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(o.CrashAfter):
				net.Crash(timestamp.NodeID(o.CrashNode))
				set.crash(o.CrashNode).Stop()
			}
		}()
	}

	time.Sleep(o.Duration)
	elapsed := time.Since(start)
	completed := stats.Completed() - completedAtStart
	cancel()
	wg.Wait()
	<-sampleDone

	// Collect.
	res := Result{
		Protocol:    o.Protocol,
		ConflictPct: o.ConflictPct,
		Failed:      stats.Failed(),
	}
	rescale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / o.Scale)
	}
	var propose, retry, deliver time.Duration
	for i, m := range mets {
		site := fmt.Sprintf("site%d", i)
		if i < len(memnet.SiteNames) {
			site = memnet.SiteNames[i]
		}
		res.Sites = append(res.Sites, SiteResult{
			Site:        site,
			MeanLatency: rescale(m.Latency.Mean()),
			Count:       m.Latency.Count(),
			MeanWait:    rescale(m.WaitCondition.Mean()),
		})
		res.FastDecisions += m.FastDecisions.Load()
		res.SlowDecisions += m.SlowDecisions.Load()
		propose += m.ProposePhase.Total()
		retry += m.RetryPhase.Total()
		deliver += m.DeliverPhase.Total()
	}
	// Throughput counts completed client commands (batches unfold to
	// their members at the clients), the quantity the paper plots.
	res.Throughput = float64(completed) / elapsed.Seconds()
	if total := propose + retry + deliver; total > 0 {
		res.ProposeFrac = float64(propose) / float64(total)
		res.RetryFrac = float64(retry) / float64(total)
		res.DeliverFrac = float64(deliver) / float64(total)
	}
	tlMu.Lock()
	res.Timeline = timeline
	tlMu.Unlock()
	return res
}
