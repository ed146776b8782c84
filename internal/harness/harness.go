// Package harness runs the paper's experiments: it builds a five-site
// cluster over the simulated WAN (internal/memnet with the paper's EC2
// round-trip times), drives the §VI key-value workload against a chosen
// protocol, and reports the measurements each figure plots.
//
// Latencies are measured in scaled wall-clock time and rescaled back to
// paper units (divide by Scale), so a run at Scale 0.1 finishes 10× faster
// while preserving every delay ratio. Throughput is reported as measured.
package harness

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/epaxos"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/m2paxos"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/mencius"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/multipaxos"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
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

// Options configures one experiment run.
type Options struct {
	Protocol Protocol
	// Nodes is the cluster size (default 5, the paper's deployment).
	Nodes int
	// Scale shrinks the WAN latencies (default 0.05).
	Scale float64
	// Jitter is the per-message jitter before scaling (default 2ms).
	Jitter time.Duration
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
	// Shards > 1 runs that many independent consensus groups per node
	// (internal/shard) under the cross-shard commit layer
	// (internal/xshard), routing every command to a group by consistent
	// hashing of its key. Applies to every protocol.
	Shards int
	// CrossShardPct in [0,100] makes that fraction of client commands
	// two-key transactions spanning consensus groups, committed
	// atomically through the cross-shard layer. Atomicity holds for
	// every protocol; the layer's merged-timestamp ordering of
	// concurrent conflicting transactions is only active for CAESAR
	// groups (the other engines do not expose stable timestamps).
	CrossShardPct float64
	// CrossShardSpan is the group topology the cross-shard pairs are
	// drawn against (default Shards); fixing it across runs keeps the
	// command stream identical when comparing shard counts.
	CrossShardSpan int
	// ApplyCost models the state machine's per-command execution cost
	// (e.g. a durable write) as a sleep inside Apply. Execution within one
	// group is serial, so this caps a single group's delivery pipeline at
	// 1/ApplyCost commands per second on every node; sharded runs overlap
	// it across their groups. Wall-clock, not rescaled by Scale.
	ApplyCost time.Duration
	// LocalNet replaces the geo-replicated WAN with a zero-delay network
	// (Scale is forced to 1, so latencies report unscaled) for
	// pipeline-bound throughput experiments such as the sharding scaling
	// comparison.
	LocalNet bool
	// ResizeTo > 0 resizes the deployment's shard count to this value
	// ResizeAfter into the measurement window, live (the elastic
	// scenario). Requires Protocol == Caesar and Shards > 1.
	ResizeTo    int
	ResizeAfter time.Duration
	// DataDir makes every node durable (internal/wal): node i logs to
	// DataDir/node<i> with group-commit fsync batching, the durable
	// scenario's subject. Caller owns the directory's lifetime.
	DataDir string
	// WALNoSync disables the fsync on group commit (ablation: the cost
	// of the write path alone, without the sync).
	WALNoSync bool
	// ReadPct in [0,100] makes that fraction of client operations reads
	// (the read-heavy scenario's mix axis). Reads are proposed through
	// consensus like writes unless LocalReads is set.
	ReadPct float64
	// LocalReads serves the read mix from each node's local read engine
	// (internal/reads): stamped against the group clock, answered once
	// the delivery frontier passes the stamp — no proposal, no quorum.
	LocalReads bool
	// Obs attaches a full observability registry (internal/obs) to every
	// node, exactly as cmd/caesar-server does: per-group recorders,
	// node histograms and every scrape-time gauge. Used to measure the
	// registry's hot-path overhead against an unobserved run.
	Obs bool
	// ZipfS > 1 skews the workload's shared-pool key draw zipfian with
	// that exponent (workload.Config.ZipfS): conflicts concentrate on a
	// few heavy-hitter keys instead of spreading uniformly, the
	// distribution the contention profile attributes. <= 1 keeps the
	// paper's uniform draw.
	ZipfS float64
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 5
	}
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Jitter == 0 {
		o.Jitter = 2 * time.Millisecond
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
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.CrossShardSpan == 0 {
		o.CrossShardSpan = o.Shards
	}
	if o.LocalNet {
		o.Scale = 1
	}
	return o
}

// label renders the run's identifying configuration: protocol, conflict
// percentage and every knob that departs from the defaults. Two runs of
// the same figure produce identical labels, which is what lets
// bench-compare match rows across result files.
func (o Options) label() string {
	parts := []string{string(o.Protocol), fmt.Sprintf("conflict=%g", o.ConflictPct)}
	if o.Shards > 1 {
		parts = append(parts, fmt.Sprintf("shards=%d", o.Shards))
	}
	if o.CrossShardPct > 0 {
		parts = append(parts, fmt.Sprintf("cross=%g", o.CrossShardPct))
	}
	if o.ReadPct > 0 {
		mode := "proposed"
		if o.LocalReads {
			mode = "local"
		}
		parts = append(parts, fmt.Sprintf("reads=%g/%s", o.ReadPct, mode))
	}
	if o.Batching {
		parts = append(parts, "batching")
	}
	if o.DataDir != "" {
		if o.WALNoSync {
			parts = append(parts, "durable-nosync")
		} else {
			parts = append(parts, "durable")
		}
	}
	if o.ResizeTo > 0 {
		parts = append(parts, fmt.Sprintf("resize=%d", o.ResizeTo))
	}
	if o.CrashNode >= 0 {
		parts = append(parts, fmt.Sprintf("crash=n%d", o.CrashNode))
	}
	if o.Obs {
		parts = append(parts, "obs")
	}
	if o.ZipfS > 1 {
		parts = append(parts, fmt.Sprintf("zipf=%g", o.ZipfS))
	}
	return strings.Join(parts, " ")
}

// SiteResult is one site's column in the latency figures, rescaled to
// paper units.
type SiteResult struct {
	Site        string
	MeanLatency time.Duration
	P50, P99    time.Duration
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
	// Label compactly identifies the run's configuration (protocol,
	// conflict %, every non-default knob) for machine-readable output —
	// the row key BENCH_<figure>.json files are diffed on.
	Label string
	// Shards echoes the run's consensus-group count (minimum 1).
	Shards int
	Sites  []SiteResult
	// Throughput is completed commands per second over the window.
	Throughput float64
	// Fast/slow decision split (Fig 10).
	FastDecisions, SlowDecisions int64
	// Phase fractions of total leader-observed latency (Fig 11a).
	ProposeFrac, RetryFrac, DeliverFrac float64
	Timeline                            []TimelinePoint
	// Failed counts client commands that timed out or errored.
	Failed int64
	// Read-mix measurements (the readheavy figure): completed reads over
	// the window and their latency percentiles in paper units, measured
	// client-side so the local and propose-based columns are directly
	// comparable. Zero without Options.ReadPct.
	Reads            int64
	ReadP50, ReadP99 time.Duration
	// Durable-log measurements (the durable figure), aggregated across
	// the cluster: group commits, their mean batch size (records per
	// fsync) and mean fsync latency. Zero without Options.DataDir.
	FsyncCount       int64
	FsyncBatchMean   float64
	FsyncLatencyMean time.Duration
	// Contention measurements (internal/contend), aggregated across the
	// cluster over the measurement window. FastShare is the fast-decision
	// fraction; ConflictRate is acceptor-observed contention events
	// (nacks + wait-condition blocks) per completed command; the Loss*
	// counters decompose the fast-path losses by cause; HotKey is the
	// run's heaviest key with its attributed event weight.
	FastShare    float64
	ConflictRate float64
	LossNack     int64
	LossBlocked  int64
	LossRetry    int64
	LossRecovery int64
	HotKey       string
	HotKeyEvents int64
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

func (s *engineSet) isDown(node int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.down[node]
}

// stackReaders resolves each node's local read engine for the client
// loops (Options.LocalReads); crashed nodes and nodes without read
// support resolve to nil, making their clients propose reads instead.
type stackReaders struct {
	stacks []*stack.Stack
	down   *engineSet
}

func (s stackReaders) Reader(node int) workload.Reader {
	if s.down.isDown(node) {
		return nil
	}
	rd := s.stacks[node].Reads
	if rd == nil || !rd.Available() {
		return nil
	}
	return rd
}

// pacedApplier models Options.ApplyCost: each Apply sleeps for the
// configured service time before executing, occupying its group's (serial)
// delivery pipeline for that long without burning CPU.
type pacedApplier struct {
	inner protocol.TimestampedAtomicApplier
	cost  time.Duration
}

func (p pacedApplier) Apply(cmd command.Command) []byte {
	return p.ApplyAt(cmd, timestamp.Zero)
}

// ApplyAt keeps decided timestamps flowing through the pacing wrapper so
// the store's version ring (behind the local read path) stays stamped.
func (p pacedApplier) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	n := 1
	if cmd.Op == command.OpBatch {
		// A batch expands to its members below this wrapper; charge the
		// modeled cost per member, or batched columns undercharge by the
		// batch factor.
		if members, err := batch.Unpack(cmd); err == nil && len(members) > 0 {
			n = len(members)
		}
	}
	//caesarlint:allow loopblock -- the sleep is the model: ApplyCost stands for a state machine that occupies its caller (a group's delivery pipeline) for that long
	time.Sleep(time.Duration(n) * p.cost)
	return p.inner.ApplyAt(cmd, ts)
}

func (p pacedApplier) ApplyAll(cmds []command.Command) [][]byte {
	return p.ApplyAllAt(cmds, timestamp.Zero)
}

// ApplyAllAt pays the per-op cost up front, outside the atomic window.
func (p pacedApplier) ApplyAllAt(cmds []command.Command, ts timestamp.Timestamp) [][]byte {
	time.Sleep(time.Duration(len(cmds)) * p.cost)
	return p.inner.ApplyAllAt(cmds, ts)
}

// build constructs the cluster's node stacks through the shared
// constructor (internal/stack). With o.Shards > 1 every node runs one
// engine per shard behind a shard.Engine with the cross-shard commit
// layer (internal/xshard) on top — and, for CAESAR, the live rebalancing
// layer (internal/rebalance) so the elastic scenario can resize mid-run —
// all groups sharing the node's applier, recorder and commit table; with
// o.DataDir every node additionally logs through a write-ahead log
// (internal/wal). The per-protocol construction is identical either way,
// so any protocol can be sharded; durable restart seeding is wired for
// CAESAR, the protocol the durable scenario runs.
func build(o Options, net *memnet.Network, mets []*metrics.Recorder, stores []*kvstore.Store, apps []protocol.TimestampedAtomicApplier) []*stack.Stack {
	stacks := make([]*stack.Stack, o.Nodes)
	crashRun := o.CrashNode >= 0
	for i := 0; i < o.Nodes; i++ {
		ep := net.Endpoint(timestamp.NodeID(i))
		app := apps[i]
		if o.ApplyCost > 0 {
			app = pacedApplier{inner: app, cost: o.ApplyCost}
		}
		met := mets[i]
		mk := func(g int, ep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed, gmet *metrics.Recorder, ctd *contend.Group) protocol.Engine {
			if gmet == nil {
				gmet = met
			}
			switch o.Protocol {
			case Caesar, CaesarNoWait:
				cfg := caesar.Config{DisableWait: o.Protocol == CaesarNoWait}
				if crashRun {
					cfg.HeartbeatInterval = 50 * time.Millisecond
					cfg.SuspectTimeout = 500 * time.Millisecond
					cfg.RecoveryBackoff = 100 * time.Millisecond
				} else {
					cfg.HeartbeatInterval = -1
				}
				return stack.CaesarEngine(cfg)(g, ep, app, seed, gmet, ctd)
			case EPaxos:
				cfg := epaxos.Config{Metrics: gmet}
				if crashRun {
					cfg.HeartbeatInterval = 50 * time.Millisecond
					cfg.SuspectTimeout = 500 * time.Millisecond
					cfg.RecoveryBackoff = 100 * time.Millisecond
				} else {
					cfg.HeartbeatInterval = -1
				}
				return epaxos.New(ep, app, cfg)
			case M2Paxos:
				return m2paxos.New(ep, app, m2paxos.Config{Metrics: gmet})
			case Mencius:
				return mencius.New(ep, app, mencius.Config{Metrics: gmet})
			case MultiPaxosIR:
				return multipaxos.New(ep, app, multipaxos.Config{Leader: 3, Metrics: gmet})
			case MultiPaxosIN:
				return multipaxos.New(ep, app, multipaxos.Config{Leader: 4, Metrics: gmet})
			default:
				panic(fmt.Sprintf("harness: unknown protocol %q", o.Protocol))
			}
		}
		dataDir := ""
		if o.DataDir != "" {
			dataDir = filepath.Join(o.DataDir, fmt.Sprintf("node%d", i))
		}
		var ob *obs.Registry
		if o.Obs {
			ob = obs.NewRegistry()
		}
		stk, err := stack.Build(ep, stack.Config{
			Shards:    o.Shards,
			Store:     stores[i],
			Applier:   app,
			Metrics:   met,
			Obs:       ob,
			DataDir:   dataDir,
			WAL:       wal.Options{NoSync: o.WALNoSync, Metrics: met},
			Rebalance: o.Protocol == Caesar || o.Protocol == CaesarNoWait,
			Build: func(g int, sep transport.Endpoint, gapp protocol.Applier, seed wal.GroupSeed, gmet *metrics.Recorder, ctd *contend.Group) protocol.Engine {
				// Batching wraps each group, not the sharded fan-out:
				// batches form per group, so they never span shards
				// (cross-shard pieces bypass the batcher entirely).
				eng := mk(g, sep, gapp, seed, gmet, ctd)
				if o.Batching {
					eng = batch.Wrap(eng, batch.Config{})
				}
				return eng
			},
		})
		if err != nil {
			panic(fmt.Sprintf("harness: building node %d: %v", i, err))
		}
		stacks[i] = stk
	}
	return stacks
}

// Run executes one experiment and returns its measurements.
func Run(o Options) Result {
	o = o.withDefaults()
	delay := memnet.GeoDelay(o.Scale)
	if o.LocalNet {
		delay = nil
	}
	net := memnet.New(memnet.Config{
		Nodes:  o.Nodes,
		Delay:  delay,
		Jitter: time.Duration(float64(o.Jitter) * o.Scale),
		Seed:   o.Seed,
	})
	defer net.Close()

	mets := make([]*metrics.Recorder, o.Nodes)
	stores := make([]*kvstore.Store, o.Nodes)
	apps := make([]protocol.TimestampedAtomicApplier, o.Nodes)
	for i := range mets {
		mets[i] = metrics.NewRecorder()
		stores[i] = kvstore.New()
		apps[i] = batch.NewApplier(stores[i])
	}
	stacks := build(o, net, mets, stores, apps)
	engines := make([]protocol.Engine, o.Nodes)
	for i, stk := range stacks {
		engines[i] = stk.Engine
	}
	set := &engineSet{engines: engines, down: make([]bool, o.Nodes)}
	for _, stk := range stacks {
		stk.Start()
	}
	defer func() {
		for i, stk := range stacks {
			if !set.down[i] {
				stk.Stop()
			}
		}
	}()

	// Clients.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cmdTimeout := 10 * time.Second
	stats := &workload.ClientStats{}
	var readers workload.Readers
	if o.LocalReads {
		readers = stackReaders{stacks: stacks, down: set}
	}
	var wg sync.WaitGroup
	for node := 0; node < o.Nodes; node++ {
		for c := 0; c < o.ClientsPerNode; c++ {
			wg.Add(1)
			gen := workload.NewGenerator(workload.Config{
				ConflictPct:   o.ConflictPct,
				Seed:          o.Seed + int64(node*1000+c),
				CrossShardPct: o.CrossShardPct,
				SpanShards:    o.CrossShardSpan,
				ReadPct:       o.ReadPct,
				ZipfS:         o.ZipfS,
			}, fmt.Sprintf("n%dc%d", node, c))
			go func(node int, gen *workload.Generator) {
				defer wg.Done()
				workload.RunClosedLoopMixed(ctx, set, readers, node, gen, cmdTimeout, stats)
			}(node, gen)
		}
	}

	time.Sleep(o.Warmup)
	for _, m := range mets {
		m.Reset()
	}
	for _, stk := range stacks {
		stk.Contend.Reset()
	}
	stats.ResetReads()
	start := time.Now()
	completedAtStart := stats.Completed()
	readsAtStart := stats.Reads()

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
				set.crash(o.CrashNode)
				stacks[o.CrashNode].Stop()
			}
		}()
	}
	if o.ResizeTo > 0 {
		go func() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(o.ResizeAfter):
				if r := stacks[0].Resizer; r != nil {
					_ = r.Resize(ctx, o.ResizeTo)
				}
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
		Label:       o.label(),
		Shards:      o.Shards,
		Failed:      stats.Failed(),
	}
	rescale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / o.Scale)
	}
	var propose, retry, deliver time.Duration
	var fsyncs, fsyncRecs int64
	var fsyncTotal time.Duration
	for i, m := range mets {
		site := fmt.Sprintf("site%d", i)
		if i < len(memnet.SiteNames) {
			site = memnet.SiteNames[i]
		}
		res.Sites = append(res.Sites, SiteResult{
			Site:        site,
			MeanLatency: rescale(m.Latency.Mean()),
			P50:         rescale(m.Latency.Quantile(0.50)),
			P99:         rescale(m.Latency.Quantile(0.99)),
			Count:       m.Latency.Count(),
			MeanWait:    rescale(m.WaitCondition.Mean()),
		})
		res.FastDecisions += m.FastDecisions.Load()
		res.SlowDecisions += m.SlowDecisions.Load()
		propose += m.ProposePhase.Total()
		retry += m.RetryPhase.Total()
		deliver += m.DeliverPhase.Total()
		fsyncs += m.Fsyncs.Load()
		fsyncRecs += m.FsyncedRecords.Load()
		fsyncTotal += m.FsyncLatency.Total()
	}
	res.FsyncCount = fsyncs
	if fsyncs > 0 {
		res.FsyncBatchMean = float64(fsyncRecs) / float64(fsyncs)
		res.FsyncLatencyMean = fsyncTotal / time.Duration(fsyncs)
	}
	// Contention profile, merged across the cluster's nodes: loss totals
	// sum, and the hottest key is the one with the highest summed event
	// weight among each node's head.
	hot := make(map[string]int64)
	for _, stk := range stacks {
		tot := stk.Contend.TotalLosses()
		res.LossNack += tot.Nack
		res.LossBlocked += tot.Blocked
		res.LossRetry += tot.Retry
		res.LossRecovery += tot.Recovery
		for _, ks := range stk.Contend.TopKeys(8) {
			hot[ks.Key] += ks.Events
		}
	}
	for k, ev := range hot {
		if ev > res.HotKeyEvents || (ev == res.HotKeyEvents && k < res.HotKey) {
			res.HotKey, res.HotKeyEvents = k, ev
		}
	}
	if total := res.FastDecisions + res.SlowDecisions; total > 0 {
		res.FastShare = float64(res.FastDecisions) / float64(total)
	}
	if completed > 0 {
		res.ConflictRate = float64(res.LossNack+res.LossBlocked) / float64(completed)
	}
	// Throughput counts completed client commands (batches unfold to
	// their members at the clients), the quantity the paper plots.
	res.Throughput = float64(completed) / elapsed.Seconds()
	res.Reads = stats.Reads() - readsAtStart
	if rl := stats.ReadLatency(); rl != nil && rl.Count() > 0 {
		res.ReadP50 = rescale(rl.Quantile(0.50))
		res.ReadP99 = rescale(rl.Quantile(0.99))
	}
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
