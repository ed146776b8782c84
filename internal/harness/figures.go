package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// ConflictLevels are the x-axis of Figs 6, 9, 10 and 11a: "{0% – no
// conflict, 2%, 10%, 30%, 50%, 100% – total order}".
var ConflictLevels = []float64{0, 2, 10, 30, 50, 100}

// ms renders a duration as paper-style milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// Figure6 reproduces "Average latency for ordering and processing commands
// by changing the percentage of conflicting commands" for CAESAR, EPaxos
// and M2Paxos at every site. Batching is disabled.
func Figure6(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Figure 6: mean latency (ms) per site vs conflict % (batching off)")
	var results []Result
	for _, proto := range []Protocol{Caesar, EPaxos, M2Paxos} {
		fmt.Fprintf(w, "\n[%s]\n%-10s", proto, "conflict%")
		for _, s := range siteNames(base) {
			fmt.Fprintf(w, " %10s", s)
		}
		fmt.Fprintln(w)
		for _, conflict := range ConflictLevels {
			res := Run(applyOpts(base, proto, conflict))
			results = append(results, res)
			fmt.Fprintf(w, "%-10.0f", conflict)
			for _, s := range res.Sites {
				fmt.Fprintf(w, " %10s", ms(s.MeanLatency))
			}
			fmt.Fprintln(w)
		}
	}
	return results
}

// Figure7 reproduces "Average latency for ordering commands of Multi-Paxos
// (with a close and faraway leader), Mencius, and CAESAR" (0% conflicts,
// batching disabled).
func Figure7(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Figure 7: mean latency (ms) per site, 0% conflicts (batching off)")
	fmt.Fprintf(w, "%-16s", "protocol")
	for _, s := range siteNames(base) {
		fmt.Fprintf(w, " %10s", s)
	}
	fmt.Fprintln(w)
	var results []Result
	for _, proto := range []Protocol{MultiPaxosIR, MultiPaxosIN, Mencius, Caesar} {
		res := Run(applyOpts(base, proto, 0))
		results = append(results, res)
		fmt.Fprintf(w, "%-16s", proto)
		for _, s := range res.Sites {
			fmt.Fprintf(w, " %10s", ms(s.MeanLatency))
		}
		fmt.Fprintln(w)
	}
	return results
}

// Figure8Clients is the x-axis of Fig 8 (total connected clients).
var Figure8Clients = []int{5, 50, 500, 1000, 1500, 2000}

// Figure8 reproduces "Latency per node while varying the number of
// connected clients", 10% conflicts, no batching.
func Figure8(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Figure 8: mean latency (ms) per site vs total clients (10% conflicts)")
	var results []Result
	for _, proto := range []Protocol{Caesar, EPaxos, M2Paxos} {
		fmt.Fprintf(w, "\n[%s]\n%-10s", proto, "clients")
		for _, s := range siteNames(base) {
			fmt.Fprintf(w, " %10s", s)
		}
		fmt.Fprintln(w)
		for _, clients := range Figure8Clients {
			o := applyOpts(base, proto, 10)
			o.ClientsPerNode = clients / o.nodesOrDefault()
			if o.ClientsPerNode == 0 {
				o.ClientsPerNode = 1
			}
			res := Run(o)
			results = append(results, res)
			fmt.Fprintf(w, "%-10d", clients)
			for _, s := range res.Sites {
				fmt.Fprintf(w, " %10s", ms(s.MeanLatency))
			}
			fmt.Fprintln(w)
		}
	}
	return results
}

// Figure9 reproduces "Throughput by varying the percentage of conflicting
// commands", batching disabled (top) and enabled (bottom). Multi-Paxos and
// Mencius are conflict-oblivious and reported under the 0% column;
// Mencius's implementation does not support batching (as in the paper).
func Figure9(w io.Writer, base Options, batching bool) []Result {
	label := "off"
	if batching {
		label = "on"
	}
	fmt.Fprintf(w, "Figure 9 (batching %s): throughput (cmds/s) vs conflict %%\n", label)
	protos := []Protocol{EPaxos, Caesar, M2Paxos, MultiPaxosIR, MultiPaxosIN}
	if !batching {
		protos = append(protos, Mencius)
	}
	fmt.Fprintf(w, "%-16s", "protocol")
	for _, c := range ConflictLevels {
		fmt.Fprintf(w, " %9.0f%%", c)
	}
	fmt.Fprintln(w)
	var results []Result
	for _, proto := range protos {
		fmt.Fprintf(w, "%-16s", proto)
		conflictOblivious := proto == Mencius || proto == MultiPaxosIR || proto == MultiPaxosIN
		for _, conflict := range ConflictLevels {
			if conflictOblivious && conflict != 0 {
				fmt.Fprintf(w, " %10s", "-")
				continue
			}
			o := applyOpts(base, proto, conflict)
			o.Batching = batching
			if o.ClientsPerNode < 150 {
				o.ClientsPerNode = 150 // saturate: Fig 9 is an open-loop experiment
			}
			res := Run(o)
			results = append(results, res)
			fmt.Fprintf(w, " %10.0f", res.Throughput)
		}
		fmt.Fprintln(w)
	}
	return results
}

// Figure10 reproduces "% of commands delivered using a slow decision by
// varying % of conflicting commands" for EPaxos and CAESAR (batching off).
func Figure10(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Figure 10: % slow decisions vs conflict % (batching off)")
	fmt.Fprintf(w, "%-10s %10s %10s\n", "conflict%", "EPaxos", "Caesar")
	var results []Result
	for _, conflict := range ConflictLevels {
		// Fig 10 uses the loaded throughput workload (the paper gathers
		// it from the same runs as Fig 9), where conflicting proposals
		// actually overlap in flight.
		oe, oc := applyOpts(base, EPaxos, conflict), applyOpts(base, Caesar, conflict)
		if oe.ClientsPerNode < 40 {
			oe.ClientsPerNode = 40
			oc.ClientsPerNode = 40
		}
		re := Run(oe)
		rc := Run(oc)
		results = append(results, re, rc)
		fmt.Fprintf(w, "%-10.0f %9.1f%% %9.1f%%\n",
			conflict, re.SlowRatio()*100, rc.SlowRatio()*100)
	}
	return results
}

// Figure11a reproduces the ordering-phase latency breakdown of CAESAR:
// the proportion of latency spent in the proposal, retry and delivery
// stages per conflict level.
func Figure11a(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Figure 11a: CAESAR latency proportion per ordering phase")
	fmt.Fprintf(w, "%-10s %10s %10s %10s\n", "conflict%", "propose", "retry", "deliver")
	var results []Result
	for _, conflict := range ConflictLevels {
		o := applyOpts(base, Caesar, conflict)
		if o.ClientsPerNode < 40 {
			o.ClientsPerNode = 40 // gathered during the throughput runs
		}
		res := Run(o)
		results = append(results, res)
		fmt.Fprintf(w, "%-10.0f %9.1f%% %9.1f%% %9.1f%%\n",
			conflict, res.ProposeFrac*100, res.RetryFrac*100, res.DeliverFrac*100)
	}
	return results
}

// Figure11bConflicts are the conflict levels of Fig 11b.
var Figure11bConflicts = []float64{2, 10, 30}

// Figure11b reproduces the average time spent in the wait condition during
// the proposal phase, per site.
func Figure11b(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Figure 11b: CAESAR mean wait-condition time (ms) per site")
	fmt.Fprintf(w, "%-10s", "conflict%")
	for _, s := range siteNames(base) {
		fmt.Fprintf(w, " %10s", s)
	}
	fmt.Fprintln(w)
	var results []Result
	for _, conflict := range Figure11bConflicts {
		o := applyOpts(base, Caesar, conflict)
		if o.ClientsPerNode < 40 {
			o.ClientsPerNode = 40 // "using the same workload for throughput measurement"
		}
		res := Run(o)
		results = append(results, res)
		fmt.Fprintf(w, "%-10.0f", conflict)
		for _, s := range res.Sites {
			fmt.Fprintf(w, " %10s", ms(s.MeanWait))
		}
		fmt.Fprintln(w)
	}
	return results
}

// Figure12 reproduces "Throughput when one node fails": a timeline of
// throughput for CAESAR and EPaxos with one node crashing mid-run; clients
// of the crashed node reconnect to the survivors.
func Figure12(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Figure 12: throughput timeline with a crash (cmds/s)")
	var results []Result
	for _, proto := range []Protocol{EPaxos, Caesar} {
		o := applyOpts(base, proto, 2)
		if o.ClientsPerNode < 25 {
			o.ClientsPerNode = 25
		}
		if o.Duration < 8*time.Second {
			o.Duration = 8 * time.Second
		}
		o.CrashNode = 4
		o.CrashAfter = o.Duration / 3
		o.SampleInterval = 500 * time.Millisecond
		res := Run(o)
		results = append(results, res)
		fmt.Fprintf(w, "\n[%s] crash of node 4 at t=%v\n", proto, o.CrashAfter)
		for _, p := range res.Timeline {
			fmt.Fprintf(w, "  t=%5.1fs %8.0f cmds/s\n", p.At.Seconds(), p.Tps)
		}
	}
	return results
}

// ShardCounts is the x-axis of the sharding scaling scenario.
var ShardCounts = []int{1, 2, 4}

// ShardingOpts is the pipeline-bound configuration the sharding scenario
// compares shard counts under: a local (zero-delay) network so closed-loop
// clients saturate the delivery pipeline rather than the WAN, and a modeled
// per-command apply cost so a single group's serial execution is the
// bottleneck — the regime the partitioning is built for. Callers may still
// override duration, warmup, clients and seed through base.
func ShardingOpts(base Options, p Protocol, conflict float64, shards int) Options {
	o := applyOpts(base, p, conflict)
	o.Shards = shards
	o.LocalNet = true
	if o.ApplyCost == 0 {
		o.ApplyCost = 2 * time.Millisecond
	}
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.ClientsPerNode == 0 {
		o.ClientsPerNode = 20
	}
	return o
}

// Sharding is the scaling scenario of the sharded deployment: aggregate
// throughput for 1, 2 and 4 consensus groups per node on the paper's
// workload at low (2%) and moderate (10%) conflict rates. Execution within
// one group is serial, so the 1-shard column is capped by a single delivery
// pipeline (~1/ApplyCost cmds/s); non-conflicting traffic on different
// shards executes in parallel and the speedup column approaches the shard
// count.
func Sharding(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Sharding: aggregate throughput (cmds/s) vs consensus groups per node")
	fmt.Fprintf(w, "%-10s %8s", "conflict%", "shards")
	fmt.Fprintf(w, " %12s %12s\n", "cmds/s", "speedup")
	var results []Result
	for _, conflict := range []float64{2, 10} {
		var baseline float64
		for _, shards := range ShardCounts {
			res := Run(ShardingOpts(base, Caesar, conflict, shards))
			results = append(results, res)
			if shards == 1 {
				baseline = res.Throughput
			}
			speedup := 0.0
			if baseline > 0 {
				speedup = res.Throughput / baseline
			}
			fmt.Fprintf(w, "%-10.0f %8d %12.0f %11.2fx\n",
				conflict, shards, res.Throughput, speedup)
		}
	}
	return results
}

// CrossShardRatios is the x-axis of the cross-shard mix scenario: the
// percentage of client commands that are two-key transactions spanning
// consensus groups.
var CrossShardRatios = []float64{0, 5, 10, 20}

// CrossShardOpts configures one cross-shard mix run: the pipeline-bound
// sharded setup of ShardingOpts at 2% conflict, with crossPct of the
// commands drawn as cross-group pairs against a fixed 4-group topology —
// so a 1-group baseline and a 4-group deployment see the identical command
// stream (on one group the pairs are ordinary atomic batches).
func CrossShardOpts(base Options, p Protocol, crossPct float64, shards int) Options {
	o := ShardingOpts(base, p, 2, shards)
	o.CrossShardPct = crossPct
	o.CrossShardSpan = 4
	return o
}

// CrossShard measures the price of atomic cross-group commits: aggregate
// throughput of a 4-group deployment as the cross-shard transaction mix
// grows from 0 to 20%, against the single-group baseline running the same
// stream. At 0% the 4-group column reproduces the sharding speedup; each
// added percent of cross-shard traffic pays one commit-table round per
// touched group, pulling the speedup back toward the baseline.
func CrossShard(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "CrossShard: aggregate throughput (cmds/s) vs cross-shard transaction mix")
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "cross%", "1 group", "4 groups", "speedup")
	var results []Result
	for _, pct := range CrossShardRatios {
		one := Run(CrossShardOpts(base, Caesar, pct, 1))
		four := Run(CrossShardOpts(base, Caesar, pct, 4))
		results = append(results, one, four)
		speedup := 0.0
		if one.Throughput > 0 {
			speedup = four.Throughput / one.Throughput
		}
		fmt.Fprintf(w, "%-10.0f %12.0f %12.0f %11.2fx\n",
			pct, one.Throughput, four.Throughput, speedup)
	}
	return results
}

// ElasticResize is the shard-count trajectory of the elastic scenario.
var ElasticResize = struct{ From, To int }{From: 2, To: 4}

// ElasticOpts configures the elastic scenario's measured run: the
// pipeline-bound sharded setup of ShardingOpts starting at from groups,
// resized live to to groups a third into the measurement window, with a
// throughput timeline sampled around the transition.
func ElasticOpts(base Options, from, to int) Options {
	o := ShardingOpts(base, Caesar, 2, from)
	o.ResizeTo = to
	o.ResizeAfter = o.Duration / 3
	if o.SampleInterval == 0 {
		o.SampleInterval = o.Duration / 12
		if o.SampleInterval < 50*time.Millisecond {
			o.SampleInterval = 50 * time.Millisecond
		}
	}
	return o
}

// Elastic measures a live shard-count resize under load: a 2-group
// deployment serving the pipeline-bound workload is resized to 4 groups
// mid-run (consensus-fenced epoch switch plus state handoff,
// internal/rebalance), and its throughput timeline is compared with a
// statically configured 4-group run of the same workload. A healthy
// resize shows no stall longer than one handoff round and a post-resize
// level matching the static deployment.
func Elastic(w io.Writer, base Options) []Result {
	from, to := ElasticResize.From, ElasticResize.To
	o := ElasticOpts(base, from, to)
	fmt.Fprintf(w, "Elastic: live %d→%d-group resize at t=%.1fs vs a static %d-group run\n",
		from, to, o.ResizeAfter.Seconds(), to)
	el := Run(o)
	static4 := Run(ShardingOpts(base, Caesar, 2, to))

	fmt.Fprintln(w, "timeline (cmds/s):")
	var pre, post float64
	var npre, npost int
	// Samples within half a sample interval of the resize are the
	// transition itself; split the rest around it.
	for _, p := range el.Timeline {
		marker := " "
		switch {
		case p.At <= o.ResizeAfter:
			pre += p.Tps
			npre++
		case p.At > o.ResizeAfter+2*o.SampleInterval:
			post += p.Tps
			npost++
		default:
			marker = "← resize"
		}
		fmt.Fprintf(w, "  t=%5.2fs %8.0f %s\n", p.At.Seconds(), p.Tps, marker)
	}
	if npre > 0 {
		pre /= float64(npre)
	}
	if npost > 0 {
		post /= float64(npost)
	}
	ratio := 0.0
	if static4.Throughput > 0 {
		ratio = post / static4.Throughput
	}
	fmt.Fprintf(w, "%-22s %10.0f cmds/s\n", "pre-resize mean", pre)
	fmt.Fprintf(w, "%-22s %10.0f cmds/s\n", "post-resize mean", post)
	fmt.Fprintf(w, "%-22s %10.0f cmds/s\n", fmt.Sprintf("static %d-group", to), static4.Throughput)
	fmt.Fprintf(w, "%-22s %9.2fx\n", "post/static", ratio)
	return []Result{el, static4}
}

// ReadMixes is the x-axis of the read-heavy scenario: the percentage of
// client operations that are reads.
var ReadMixes = []float64{50, 90, 99}

// ReadHeavyOpts configures one read-heavy run: the pipeline-bound sharded
// setup of ShardingOpts (4 groups, local net, modeled apply cost) with
// readPct of the operations reads — served from the node-local read
// engine (internal/reads) when local is set, proposed through consensus
// like any command otherwise. Reads target mostly the client's own
// recent writes (read-after-write, the pattern that actually exercises
// the frontier wait) plus the shared pool at the conflict rate.
func ReadHeavyOpts(base Options, readPct float64, local bool) Options {
	o := ShardingOpts(base, Caesar, 2, 4)
	o.ReadPct = readPct
	o.LocalReads = local
	return o
}

// ReadHeavy measures what taking reads off the consensus path buys: for
// each read mix, aggregate throughput with reads proposed through
// consensus (two message delays + a quorum round per GET) against reads
// served locally after the delivery frontier passes their stamp — plus
// the local columns' client-observed read-latency percentiles. The
// propose-based column pays the full write path for every read, so the
// speedup grows with the read share; local reads of an idle frontier
// complete in microseconds.
func ReadHeavy(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "ReadHeavy: local linearizable reads vs propose-based reads (4 groups)")
	fmt.Fprintf(w, "%-8s %12s %12s %9s %12s %12s\n",
		"read%", "propose", "local", "speedup", "read p50", "read p99")
	var results []Result
	for _, mix := range ReadMixes {
		prop := Run(ReadHeavyOpts(base, mix, false))
		local := Run(ReadHeavyOpts(base, mix, true))
		results = append(results, prop, local)
		speedup := 0.0
		if prop.Throughput > 0 {
			speedup = local.Throughput / prop.Throughput
		}
		fmt.Fprintf(w, "%-8.0f %12.0f %12.0f %8.2fx %12s %12s\n",
			mix, prop.Throughput, local.Throughput, speedup,
			ms(local.ReadP50)+"ms", ms(local.ReadP99)+"ms")
	}
	return results
}

// DurableOpts configures one durable scenario run: a local-net 3-node,
// 4-group CAESAR deployment with a 5% cross-shard transaction mix (so
// the log carries pieces, markers and transaction outcomes, not just
// puts). Both columns run the same modeled 1ms state-machine cost —
// half the sharding family's — so the ratio prices group-commit
// durability against a command that does real work; the no-fsync
// column isolates the write path from the sync.
func DurableOpts(base Options, dataDir string, noSync bool) Options {
	o := applyOpts(base, Caesar, 2)
	o.LocalNet = true
	o.Shards = 4
	o.CrossShardPct = 5
	// Proposer-side batching is the other half of the HotStuff-1 trade
	// the log is built around: one consensus decision — one log record,
	// one share of an fsync — carries a window of client commands. Both
	// columns run batched, so the ratio isolates durability's cost.
	o.Batching = true
	if o.ApplyCost == 0 {
		// Like the sharding scenario family, model a real state machine:
		// durability's price is then measured against a command that does
		// work, not against an empty in-memory map write.
		o.ApplyCost = time.Millisecond
	}
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.ClientsPerNode == 0 {
		o.ClientsPerNode = 80
	}
	o.DataDir = dataDir
	o.WALNoSync = noSync
	return o
}

// Durable measures what durability costs and what it buys: the same
// workload runs purely in memory, with the write-ahead log but no fsync
// (the write path alone), and with full group-commit fsync; then node
// 0's log is reopened and replayed, timing crash recovery. The durable
// column's ratio is the scenario's acceptance bar (≥ 0.6 of in-memory
// with group commit); the batch column shows how many decisions each
// fsync amortizes.
func Durable(w io.Writer, base Options) []Result {
	fmt.Fprintln(w, "Durable: throughput with a write-ahead log vs in-memory (4 groups, 5% cross-shard)")
	fmt.Fprintf(w, "%-16s %10s %8s %10s %12s\n", "mode", "cmds/s", "ratio", "batch/sync", "sync latency")

	mem := Run(DurableOpts(base, "", false))
	fmt.Fprintf(w, "%-16s %10.0f %8s %10s %12s\n", "in-memory", mem.Throughput, "1.00x", "-", "-")

	row := func(label string, res Result) {
		ratio := 0.0
		if mem.Throughput > 0 {
			ratio = res.Throughput / mem.Throughput
		}
		lat := "-"
		if res.FsyncLatencyMean > 0 {
			lat = fmt.Sprintf("%.0fµs", float64(res.FsyncLatencyMean.Microseconds()))
		}
		fmt.Fprintf(w, "%-16s %10.0f %7.2fx %10.1f %12s\n",
			label, res.Throughput, ratio, res.FsyncBatchMean, lat)
	}

	nosyncDir, err := os.MkdirTemp("", "caesar-durable-nosync-")
	if err != nil {
		fmt.Fprintf(w, "durable: %v\n", err)
		return []Result{mem}
	}
	defer os.RemoveAll(nosyncDir)
	nosync := Run(DurableOpts(base, nosyncDir, true))
	row("log, no fsync", nosync)

	dir, err := os.MkdirTemp("", "caesar-durable-")
	if err != nil {
		fmt.Fprintf(w, "durable: %v\n", err)
		return []Result{mem, nosync}
	}
	defer os.RemoveAll(dir)
	durable := Run(DurableOpts(base, dir, false))
	row("log, fsync", durable)

	// Crash-recovery time: reopen node 0's log cold and replay it.
	start := time.Now()
	store := kvstore.New()
	log, st, err := wal.OpenInto(filepath.Join(dir, "node0"), store, wal.Options{})
	if err != nil {
		fmt.Fprintf(w, "recovery: %v\n", err)
		return []Result{mem, nosync, durable}
	}
	elapsed := time.Since(start)
	log.Close()
	fmt.Fprintf(w, "recovery: replayed %d commands (%d keys) in %s\n",
		st.Applied, store.Len(), elapsed.Round(time.Millisecond))
	return []Result{mem, nosync, durable}
}

// applyOpts stamps protocol and conflict level onto the base options.
func applyOpts(base Options, p Protocol, conflict float64) Options {
	o := base
	o.Protocol = p
	o.ConflictPct = conflict
	return o
}

func (o Options) nodesOrDefault() int {
	if o.Nodes == 0 {
		return 5
	}
	return o.Nodes
}

func siteNames(base Options) []string {
	n := base.nodesOrDefault()
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i < len(memnet.SiteNames) {
			names = append(names, memnet.SiteNames[i])
		} else {
			names = append(names, fmt.Sprintf("site%d", i))
		}
	}
	return names
}
