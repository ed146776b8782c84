package main

import "time"

// workload is one traffic mix over one deployment shape. The four specs
// below are the benchmark's fixed inputs; BENCHMARK.json names them and
// the smoke test pins the two lists against each other.
type workload struct {
	name string
	why  string

	nodes   int
	geo     bool // memnet with GeoDelay(geoScale) instead of tcpnet loopback
	shards  int
	durable bool

	// Key model. zipfKeys > 0 selects one zipfian pool of that many keys
	// shared by every node (preloaded during setup); otherwise the paper's
	// §VI model applies: with probability conflictPct a key of the 100-key
	// shared pool, else the next key of the submitting node's private pool.
	zipfKeys    int
	conflictPct float64
	readPct     float64
	txPct       float64

	rate  int  // offered ops/s of the open-loop phases; fixed, never scaled by core count
	crash bool // the traced run ends with the crash phase (node nodes-1 dies crashLeadIn into it)
}

const (
	geoScale    = 0.1 // injected one-way delay = paper RTT/2 × geoScale
	sharedPool  = 100
	privatePool = 8192
	zipfS       = 1.1
	satInFlight = 64
	issueWindow = 256 // most operations the rig keeps outstanding; later ones queue in the generator
	opTimeout   = 5 * time.Second
	freezeLimit = 300 * time.Millisecond // below caesar's FastTimeout, its shortest protocol timer
	runSlack    = 110 * time.Second      // what a run may take beyond twice its measured seconds
	sliceLen    = time.Second
	// Quiet-window latency estimator (load.go, quietPercentiles).
	quietWindowOps = 200
	quietShare     = 0.10
	defaultSeed    = 1
	defaultSecs    = 20
	preloadWindow  = 256
)

var workloads = []workload{
	{
		name:  "lan3-mem",
		why:   "3 replicas over loopback TCP, in memory, 2% conflict: consensus, gob wire and tcpnet CPU do all the work",
		nodes: 3, shards: 1, conflictPct: 2, rate: 4000,
	},
	{
		name:  "lan3-durable",
		why:   "same cluster and mix with the WAL fsyncing on a real filesystem: the log, not CPU or wire, is the bottleneck",
		nodes: 3, shards: 1, durable: true, conflictPct: 2, rate: 1000,
	},
	{
		name:  "lan3-mixed4g",
		why:   "4 groups, zipfian keys, 50% local reads, 40% puts, 10% cross-group transactions: shard, xshard, reads and kvstore together",
		nodes: 3, shards: 4, zipfKeys: 16384, readPct: 50, txPct: 10, rate: 4000,
	},
	{
		name:  "geo5-conflict",
		why:   "5 sites at paper RTTs x0.1, 30% conflict, one crash: latency is message rounds x injected delay, so only the ordering protocol moves it",
		nodes: 5, geo: true, shards: 1, conflictPct: 30, rate: 1000, crash: true,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// phases are one run's window lengths.
type phases struct {
	warm, rate, sat, crash time.Duration
	// crashLeadIn is how far into the crash phase the node dies.
	crashLeadIn time.Duration
}

// phasesFor splits a run's measured seconds. An untraced run spends them
// all open loop at the fixed rate. A traced run measures the rate phase
// twice, half each — first untraced, followed by the closed-loop
// saturation phase, then on a second cluster with the rig's wrappers on —
// and a crash workload appends the crash phase to that.
func phasesFor(w *workload, seconds int, traced bool) phases {
	total := time.Duration(seconds) * time.Second
	p := phases{warm: 2 * time.Second, rate: total}
	if p.warm > total/4 {
		p.warm = total / 4
	}
	if traced {
		p.rate, p.sat = total/2, total/2
		if w.crash {
			p.crash = total / 4
			p.crashLeadIn = p.crash / 5
		}
	}
	return p
}

// metricDef names one reported metric; BENCHMARK.json carries the same
// names and units (plus direction and bound for the end-to-end ones).
type metricDef struct {
	name, unit string
}

// endToEnd is measured by the untraced run (-trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_p50_ms", "ms"},
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
}

// perLayer is reported by the traced run (-trace 1). A layer that is not
// on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"cpu_us_per_op", "us"},
	{"sat_ops_per_s", "1/s"},
	{"sat_cpu_us_per_op", "us"},
	{"client.write_p90_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"client.write_ptail_ms", "ms"},
	{"client.samples", "count"},
	{"client.fail_ratio", "ratio"},
	{"client.in_doubt", "count"},
	{"gen.max_late_ms", "ms"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_msg", "B"},
	{"wire.allocs_per_msg", "count"},
	{"tcpnet.msgs_per_op", "count"},
	{"tcpnet.bytes_per_op", "B"},
	{"tcpnet.send_block_us_per_op", "us"},
	{"tcpnet.pingpong_us", "us"},
	{"tcpnet.stream_msgs_per_s", "1/s"},
	{"caesar.fast_share", "ratio"},
	{"caesar.slow_per_kop", "count"},
	{"caesar.retries_per_kop", "count"},
	{"caesar.nacks_per_kop", "count"},
	{"caesar.blocked_per_kop", "count"},
	{"caesar.recoveries", "count"},
	{"caesar.wait_ms_per_op", "ms"},
	{"caesar.order_p50_ms", "ms"},
	{"caesar.deliver_wait_p50_ms", "ms"},
	{"caesar.ack_p50_ms", "ms"},
	{"caesar.failover_stall_ms", "ms"},
	{"caesar.only_ops_per_s", "1/s"},
	{"caesar.only_allocs_per_op", "count"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.records_per_fsync", "count"},
	{"wal.fsync_mean_ms", "ms"},
	{"wal.wait_p50_ms", "ms"},
	{"wal.append_sync_us", "us"},
	{"wal.concurrent_ops_per_s", "1/s"},
	{"wal.replay_ms_per_kcmd", "ms"},
	{"kvstore.apply_us_per_op", "us"},
	{"kvstore.apply_ns", "ns"},
	{"kvstore.getat_ns", "ns"},
	{"kvstore.allocs_per_apply", "count"},
	{"reads.read_p50_ms", "ms"},
	{"reads.parks_per_kread", "count"},
	{"reads.idle_read_ns", "ns"},
	{"shard.route_ns", "ns"},
	{"xshard.tx_p50_ms", "ms"},
	{"xshard.hold_p50_ms", "ms"},
	{"xshard.aborts_per_ktx", "count"},
	{"xshard.commits", "count"},
	{"contend.touch_ns", "ns"},
	{"trace_overhead_pct", "%"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_pause_max_ms", "ms"},
}
