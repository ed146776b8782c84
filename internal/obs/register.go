package obs

import (
	"github.com/caesar-consensus/caesar/internal/metrics"
)

// RegisterRecorder registers one recorder's consensus-path measurements
// under the given labels. The node stack calls it once per consensus
// group with that group's child recorder (metrics.Recorder.Group) and a
// group label, so the paper's per-group figures — the fast/slow decision
// split (Fig 10), the phase breakdown (Fig 11a), the wait-condition time
// (Fig 11b) — are scrapeable per group on a live node.
func (r *Registry) RegisterRecorder(ls Labels, rec *metrics.Recorder) {
	if r == nil || rec == nil {
		return
	}
	r.Counter("caesar_proposals_total",
		"Commands submitted with this replica as command leader.", ls, &rec.Proposals)
	r.Counter("caesar_executed_total",
		"Commands executed (applied to the local store).", ls, &rec.Executed)
	r.Counter("caesar_fast_decisions_total",
		"Leader decisions taken on the fast path (two communication delays).", ls, &rec.FastDecisions)
	r.Counter("caesar_slow_decisions_total",
		"Leader decisions that fell back to the slow path.", ls, &rec.SlowDecisions)
	r.Counter("caesar_retries_total",
		"Retry phases run (a proposal was rejected and re-timestamped).", ls, &rec.Retries)
	r.Counter("caesar_nacks_total",
		"Individual proposal rejections received.", ls, &rec.Nacks)
	r.Counter("caesar_recoveries_total",
		"Recovery phases run for suspected or stuck commands.", ls, &rec.Recoveries)
	r.Counter("caesar_read_fence_parks_total",
		"Local reads whose fence parked on in-flight conflicting commands.", ls, &rec.ReadFenceParks)
	r.Summary("caesar_wait_condition_seconds",
		"Time proposals spent blocked in the acceptor-side wait condition.", ls, &rec.WaitCondition)
	r.Summary("caesar_propose_phase_seconds",
		"Leader time from submission to the end of the proposal phase.", ls, &rec.ProposePhase)
	r.Summary("caesar_retry_phase_seconds",
		"Leader time spent in retry phases.", ls, &rec.RetryPhase)
	r.Summary("caesar_deliver_phase_seconds",
		"Leader time from decision to local execution.", ls, &rec.DeliverPhase)
	r.Gauge("caesar_purge_fence_keys",
		"Conflict-index entries whose purge fence is above the floor, as of the last GC tick; a reading that keeps growing means a silent replica or a record never purged holds the cluster's purge horizon.",
		ls, func() float64 { return float64(rec.PurgeFenceKeys.Load()) })
}

// RegisterNodeRecorder registers the node-level measurements that live
// on the parent recorder: the client-visible latency distributions, the
// cross-shard commit counters and the WAL group-commit counters.
func (r *Registry) RegisterNodeRecorder(rec *metrics.Recorder) {
	if r == nil || rec == nil {
		return
	}
	r.Histogram("caesar_latency_seconds",
		"Client-visible submit-to-executed command latency.", nil, rec.Latency)
	r.Histogram("caesar_read_latency_seconds",
		"Client-visible latency of node-local reads.", nil, rec.ReadLatency)
	r.Counter("caesar_read_retries_total",
		"Local read attempts invalidated (no retained version at the read point, or a key moved groups) and retried.", nil, &rec.ReadRetries)
	r.Counter("caesar_xshard_commits_total",
		"Cross-shard transactions executed at this node's commit table.", nil, &rec.CrossShardCommits)
	r.Counter("caesar_xshard_aborts_total",
		"Cross-shard transactions killed at this node's commit table.", nil, &rec.CrossShardAborts)
	r.Counter("caesar_wal_fsyncs_total",
		"Write-ahead log group-commit sync batches.", nil, &rec.Fsyncs)
	r.Counter("caesar_wal_fsynced_records_total",
		"Log records covered by group-commit sync batches.", nil, &rec.FsyncedRecords)
	r.Summary("caesar_wal_fsync_seconds",
		"Time group-commit batches spent in the file system sync call.", nil, &rec.FsyncLatency)
	r.Counter("caesar_wal_snapshots_total",
		"Snapshot cuts taken (log truncated behind them).", nil, &rec.Snapshots)
}
