package metrics

import (
	"sync/atomic"
	"time"
)

// Recorder aggregates every per-replica measurement the experiments need.
// A nil *Recorder is valid and records nothing, so engines can be run
// without instrumentation.
type Recorder struct {
	// Latency is the client-visible submit→executed latency (Figs 6–8).
	Latency *Histogram

	// ReadLatency is the client-visible latency of node-local reads
	// (internal/reads): stamp → frontier wait → settle → snapshot.
	ReadLatency *Histogram

	// Executed counts commands executed locally; Decided counts
	// decisions learned. The harness samples Executed over time for the
	// throughput figures (9, 12).
	Executed Counter
	Decided  Counter

	// Proposals counts commands submitted with this replica as leader;
	// FastDecisions / SlowDecisions split the decisions among them by
	// path (Fig 10). Retries counts retry phases, Nacks individual
	// rejections.
	Proposals     Counter
	FastDecisions Counter
	SlowDecisions Counter
	Retries       Counter
	Nacks         Counter

	// Phase breakdown at the command leader (Fig 11a).
	ProposePhase DurationSum
	RetryPhase   DurationSum
	DeliverPhase DurationSum

	// WaitCondition is the time commands spend blocked in CAESAR's
	// acceptor-side wait condition at this replica (Fig 11b).
	WaitCondition DurationSum

	// Recoveries counts recovery phases this replica ran (Fig 12 runs).
	Recoveries Counter

	// CrossShardCommits / CrossShardAborts count cross-shard transactions
	// executed or killed at this node's commit table (internal/xshard).
	CrossShardCommits Counter
	CrossShardAborts  Counter

	// ReadFenceParks counts local reads (internal/reads) whose fence had
	// to park on at least one in-flight conflicting command before the
	// store could serve them.
	ReadFenceParks Counter

	// ReadRetries counts local read attempts the store or a resize
	// invalidated (the read point had no retained version, or a key moved
	// groups mid-read) and the read engine ran again.
	ReadRetries Counter

	// Durable-log group commit (internal/wal): Fsyncs counts sync
	// batches, FsyncedRecords the log records they covered (their ratio
	// is the group-commit batch size), FsyncLatency the time each batch
	// spent in the file system's sync call. Snapshots counts snapshot
	// cuts taken (with log truncation behind them).
	Fsyncs         Counter
	FsyncedRecords Counter
	FsyncLatency   DurationSum
	Snapshots      Counter

	// PurgeFenceKeys is a level, not a count: the per-key entries a CAESAR
	// replica's purge fence holds over its two generations, stored by the
	// replica's event loop on every GC tick. It is per group and not
	// linked to the node-level recorder.
	PurgeFenceKeys atomic.Int64
}

// NewRecorder returns a Recorder ready for use.
func NewRecorder() *Recorder {
	return &Recorder{Latency: NewHistogram(), ReadLatency: NewHistogram()}
}

// Reset zeroes every measurement; the paper-figure harness
// (internal/harness) calls it after warmup so the reported window excludes
// ramp-up noise.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.Latency.Reset()
	r.ReadLatency.Reset()
	r.Executed.Reset()
	r.Decided.Reset()
	r.Proposals.Reset()
	r.FastDecisions.Reset()
	r.SlowDecisions.Reset()
	r.Retries.Reset()
	r.Nacks.Reset()
	r.ProposePhase.Reset()
	r.RetryPhase.Reset()
	r.DeliverPhase.Reset()
	r.WaitCondition.Reset()
	r.Recoveries.Reset()
	r.CrossShardCommits.Reset()
	r.CrossShardAborts.Reset()
	r.ReadFenceParks.Reset()
	r.ReadRetries.Reset()
	r.Fsyncs.Reset()
	r.FsyncedRecords.Reset()
	r.FsyncLatency.Reset()
	r.Snapshots.Reset()
}

// Group returns a child recorder for one consensus group of a sharded
// node: every counter and duration sum records into the child and
// forwards to r, so per-group series and the node-level aggregate stay
// consistent for the cost of one extra atomic add per event. The latency
// histograms are shared with the parent (quantiles are reported
// node-wide). Group of nil is nil — engines treat a nil recorder as
// "record nothing" only after withDefaults, so the stack always passes a
// real parent.
func (r *Recorder) Group() *Recorder {
	if r == nil {
		return nil
	}
	g := &Recorder{Latency: r.Latency, ReadLatency: r.ReadLatency}
	g.Executed.link = &r.Executed
	g.Decided.link = &r.Decided
	g.Proposals.link = &r.Proposals
	g.FastDecisions.link = &r.FastDecisions
	g.SlowDecisions.link = &r.SlowDecisions
	g.Retries.link = &r.Retries
	g.Nacks.link = &r.Nacks
	g.ProposePhase.link = &r.ProposePhase
	g.RetryPhase.link = &r.RetryPhase
	g.DeliverPhase.link = &r.DeliverPhase
	g.WaitCondition.link = &r.WaitCondition
	g.Recoveries.link = &r.Recoveries
	g.CrossShardCommits.link = &r.CrossShardCommits
	g.CrossShardAborts.link = &r.CrossShardAborts
	g.ReadFenceParks.link = &r.ReadFenceParks
	g.Fsyncs.link = &r.Fsyncs
	g.FsyncedRecords.link = &r.FsyncedRecords
	g.FsyncLatency.link = &r.FsyncLatency
	g.Snapshots.link = &r.Snapshots
	return g
}

// ObserveLatency records one end-to-end command latency.
func (r *Recorder) ObserveLatency(d time.Duration) {
	if r == nil {
		return
	}
	r.Latency.Observe(d)
}

// ObserveLatencyRef is ObserveLatency carrying the command's ID as a
// histogram exemplar: a /statusz scrape showing a p99 spike also names a
// command that landed in the top bucket, ready for /tracez / caesar-trace.
// ref renders the ID, and runs only for a sample that becomes the
// exemplar (see Histogram.ObserveRefFunc).
func (r *Recorder) ObserveLatencyRef(d time.Duration, ref func() string) {
	if r == nil {
		return
	}
	r.Latency.ObserveRefFunc(d, ref)
}

// SlowRatio returns the fraction of this leader's decisions that took the
// slow path, as plotted in Fig 10.
func (r *Recorder) SlowRatio() float64 {
	if r == nil {
		return 0
	}
	fast, slow := r.FastDecisions.Load(), r.SlowDecisions.Load()
	if fast+slow == 0 {
		return 0
	}
	return float64(slow) / float64(fast+slow)
}
