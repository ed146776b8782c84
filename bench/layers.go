package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// Per-layer numbers come from four sources, tagged in README.md:
//
//	[C] the program's own exported counters, differenced around a phase
//	[T] the rig's wrappers (endpoint, applier, client records), traced run
//	[R] per-command phases derived from the trace rings' At stamps — one
//	    clock, because every node lives in this process
//	[M] isolated call-timing microbenchmarks (micro.go)

// counters is a snapshot of every [C] and [T] source, summed over nodes.
type counters struct {
	fast, slow, retries, nacks, recoveries int64
	blocked                                int64
	wait                                   time.Duration
	parks, commits, aborts                 int64
	fsyncs, fsyncRecs                      int64
	fsyncLat                               time.Duration
	netMsgs, netBytes                      int64
	sendNs, applyNs                        int64
	mallocs, allocBytes                    uint64
	numGC                                  uint32
	gcCPU                                  float64 // seconds
	cpu                                    time.Duration
}

func (c *cluster) counters() counters {
	var s counters
	for i, m := range c.mets {
		s.fast += m.FastDecisions.Load()
		s.slow += m.SlowDecisions.Load()
		s.retries += m.Retries.Load()
		s.nacks += m.Nacks.Load()
		s.recoveries += m.Recoveries.Load()
		s.wait += m.WaitCondition.Total()
		s.parks += m.ReadFenceParks.Load()
		s.commits += m.CrossShardCommits.Load()
		s.aborts += m.CrossShardAborts.Load()
		s.fsyncs += m.Fsyncs.Load()
		s.fsyncRecs += m.FsyncedRecords.Load()
		s.fsyncLat += m.FsyncLatency.Total()
		s.blocked += c.stacks[i].Contend.TotalLosses().Blocked
		if tr := c.trs[i]; tr != nil {
			for peer, ps := range tr.Stats() {
				if peer != i { // self-sends never touch a socket
					s.netMsgs += ps.SentMsgs
					s.netBytes += ps.SentBytes
				}
			}
		}
	}
	// Every node runs the same transactions; count each once.
	s.commits /= int64(len(c.mets))
	s.aborts /= int64(len(c.mets))
	for _, ep := range c.eps {
		s.sendNs += ep.sendNs.Load()
	}
	for _, app := range c.apps {
		s.applyNs += app.ns.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	sample := []runtimemetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtimemetrics.Read(sample)
	if sample[0].Value.Kind() == runtimemetrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	s.cpu = cpuTime()
	return s
}

// since returns the growth of every counter from an earlier snapshot.
func (s counters) since(b counters) counters {
	return counters{
		fast: s.fast - b.fast, slow: s.slow - b.slow, retries: s.retries - b.retries,
		nacks: s.nacks - b.nacks, recoveries: s.recoveries - b.recoveries,
		blocked: s.blocked - b.blocked, wait: s.wait - b.wait,
		parks: s.parks - b.parks, commits: s.commits - b.commits, aborts: s.aborts - b.aborts,
		fsyncs: s.fsyncs - b.fsyncs, fsyncRecs: s.fsyncRecs - b.fsyncRecs, fsyncLat: s.fsyncLat - b.fsyncLat,
		netMsgs: s.netMsgs - b.netMsgs, netBytes: s.netBytes - b.netBytes,
		sendNs: s.sendNs - b.sendNs, applyNs: s.applyNs - b.applyNs,
		mallocs: s.mallocs - b.mallocs, allocBytes: s.allocBytes - b.allocBytes,
		numGC: s.numGC - b.numGC, gcCPU: s.gcCPU - b.gcCPU, cpu: s.cpu - b.cpu,
	}
}

// gcPauseMaxMs is the longest collector pause among the cycles that ended
// between two snapshots.
func gcPauseMaxMs(before, after counters) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var worst uint64
	for n := before.numGC + 1; n <= after.numGC && n-before.numGC <= uint32(len(ms.PauseNs)); n++ {
		if p := ms.PauseNs[(n+255)%256]; p > worst {
			worst = p
		}
	}
	return float64(worst) / 1e6
}

func per(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// cmdKey identifies a command across the per-group rings: IDs are only
// unique within one consensus group.
type cmdKey struct {
	group int
	id    command.ID
}

// cmdTimes are one command's milestones as its proposer recorded them.
type cmdTimes struct {
	propose, stable, deliver, fsync, ack time.Time
}

// ringView is everything derived from a traced cluster's rings.
type ringView struct {
	cmds  map[cmdKey]*cmdTimes
	holds []float64 // ms, tx-hold → tx-exec per (node, piece)
	// proposes lists, per (node, group), the commands in the order their
	// proposer started them — the order the rig submitted them in.
	proposes map[[2]int][]command.ID
	events   int
	wrapped  bool
}

func (c *cluster) readRings() *ringView {
	v := &ringView{cmds: map[cmdKey]*cmdTimes{}, proposes: map[[2]int][]command.ID{}}
	for g, ring := range c.groupRings {
		if _, wrapped := ring.Stats(); wrapped {
			v.wrapped = true
		}
		events := ring.Snapshot()
		v.events += len(events)
		for _, e := range events {
			if e.Node != e.Cmd.Node {
				continue // a follower's view; the phases are the proposer's
			}
			k := cmdKey{g, e.Cmd}
			t := v.cmds[k]
			if t == nil {
				if e.Kind != trace.KindPropose {
					continue
				}
				t = &cmdTimes{}
				v.cmds[k] = t
				v.proposes[[2]int{int(e.Node), g}] = append(v.proposes[[2]int{int(e.Node), g}], e.Cmd)
			}
			switch e.Kind {
			case trace.KindPropose:
				t.propose = e.At
			case trace.KindStable:
				if t.stable.IsZero() {
					t.stable = e.At
				}
			case trace.KindDeliver:
				t.deliver = e.At
			case trace.KindAck:
				t.ack = e.At
			}
		}
	}
	if _, wrapped := c.stackRing.Stats(); wrapped {
		v.wrapped = true
	}
	type nodeCmd struct {
		node timestamp.NodeID
		id   command.ID
	}
	held := map[nodeCmd][]time.Time{}
	stackEvents := c.stackRing.Snapshot()
	v.events += len(stackEvents)
	for _, e := range stackEvents {
		switch e.Kind {
		case trace.KindFsync:
			// The stack ring does not say which group logged; with one
			// group there is nothing to confuse.
			if len(c.groupRings) == 1 && e.Node == e.Cmd.Node {
				if t := v.cmds[cmdKey{0, e.Cmd}]; t != nil {
					t.fsync = e.At
				}
			}
		case trace.KindTxHold:
			k := nodeCmd{e.Node, e.Cmd}
			held[k] = append(held[k], e.At)
		case trace.KindTxExec:
			// Piece IDs can collide across groups; matching holds to
			// executions first-in first-out keeps the durations right in
			// all but a simultaneous collision.
			k := nodeCmd{e.Node, e.Cmd}
			if q := held[k]; len(q) > 0 {
				v.holds = append(v.holds, ms(e.At.Sub(q[0])))
				held[k] = q[1:]
			}
		}
	}
	return v
}

// phaseMedians reduces the commands proposed inside [from, to] to the
// median of each phase, in ms. The phases partition a command's life at
// its proposer: propose → stable → deliver → (fsync) → ack.
func (v *ringView) phaseMedians(from, to time.Time) (order, deliverWait, walWait, ack float64, n int) {
	var o, d, w, a []float64
	for _, t := range v.cmds {
		if t.propose.Before(from) || t.propose.After(to) || t.stable.IsZero() || t.deliver.IsZero() || t.ack.IsZero() {
			continue
		}
		n++
		o = append(o, ms(t.stable.Sub(t.propose)))
		d = append(d, ms(t.deliver.Sub(t.stable)))
		applied := t.deliver
		if !t.fsync.IsZero() {
			w = append(w, ms(t.fsync.Sub(t.deliver)))
			applied = t.fsync
		}
		a = append(a, ms(t.ack.Sub(applied)))
	}
	return median(o), median(d), median(w), median(a), n
}

// linkCommands pairs each traced command with the client operation that
// caused it: a node's k-th proposal in a group is the k-th write the rig
// submitted to that node whose keys route to that group. It returns nil
// if any count disagrees (then the trace file carries unparented command
// spans).
func (a *attempt) linkCommands(v *ringView) map[cmdKey]int64 {
	submitted := map[[2]int][]int64{}
	a.l.tab.each(func(i int64, r *opRec) {
		if r.kind == opRead || r.status.Load() == stRefused {
			return
		}
		g1 := int(a.ks.group[r.key])
		submitted[[2]int{int(r.node), g1}] = append(submitted[[2]int{int(r.node), g1}], i)
		if r.key2 >= 0 {
			g2 := int(a.ks.group[r.key2])
			submitted[[2]int{int(r.node), g2}] = append(submitted[[2]int{int(r.node), g2}], i)
		}
	})
	links := map[cmdKey]int64{}
	for ng, ids := range v.proposes {
		ops := submitted[ng]
		if len(ops) != len(ids) {
			return nil
		}
		for i, id := range ids {
			links[cmdKey{ng[1], id}] = ops[i]
		}
	}
	return links
}

// maxTraceEvents caps the raw ring events copied into a trace file; the
// spans, which are derived from all of them, are written in full.
const maxTraceEvents = 200000

// writeTrace writes the traced run's spans and ring events as JSON:
// client operation spans, and under each the command it caused with its
// phases as child spans. Times are ns since the run's epoch.
func (a *attempt) writeTrace(v *ringView, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	epoch := a.l.epoch
	rel := func(t time.Time) int64 { return int64(t.Sub(epoch)) }
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"clock\":\"ns since run epoch\",\n\"spans\":[\n", a.cfg.w.name, a.cfg.seed)
	first := true
	span := func(id int64, name string, start, end, parent int64) {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d}", id, name, start, end, parent)
	}
	a.l.tab.each(func(i int64, r *opRec) {
		if r.status.Load() == stOK {
			span(i+1, "client."+r.kind.String(), r.due, r.ack.Load(), 0)
		}
	})
	links := a.linkCommands(v)
	next := a.l.tab.n + 1
	for k, t := range v.cmds {
		if t.ack.IsZero() || t.stable.IsZero() || t.deliver.IsZero() {
			continue
		}
		parent := int64(0)
		if op, ok := links[k]; ok {
			parent = op + 1
		}
		cmd := next
		next++
		span(cmd, fmt.Sprintf("command g%d %v", k.group, k.id), rel(t.propose), rel(t.ack), parent)
		span(next, "caesar.order", rel(t.propose), rel(t.stable), cmd)
		span(next+1, "caesar.deliver_wait", rel(t.stable), rel(t.deliver), cmd)
		applied := t.deliver
		if !t.fsync.IsZero() {
			span(next+2, "wal.wait", rel(t.deliver), rel(t.fsync), cmd)
			applied = t.fsync
		}
		span(next+3, "caesar.ack", rel(applied), rel(t.ack), cmd)
		next += 4
	}
	fmt.Fprintf(w, "\n],\n\"commands_linked_to_clients\":%v,\n\"events\":[\n", links != nil)
	written := 0
	for g, ring := range append(append([]*trace.Ring(nil), a.c.groupRings...), a.c.stackRing) {
		group := g
		if g == len(a.c.groupRings) {
			group = -1 // the stack ring: WAL, commit table, rebalance
		}
		for _, e := range ring.Snapshot() {
			if written >= maxTraceEvents {
				break
			}
			if written > 0 {
				w.WriteString(",\n")
			}
			written++
			fmt.Fprintf(w, "{\"at\":%d,\"node\":%d,\"group\":%d,\"kind\":%q,\"cmd\":%q}", rel(e.At), e.Node, group, e.Kind.String(), e.Cmd.String())
		}
	}
	fmt.Fprintf(w, "\n],\n\"events_total\":%d,\"events_written\":%d}\n", v.events, written)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced produces the per-layer metrics in three steps: an untraced
// pass on one cluster, a traced pass on a second, and the isolated
// microbenchmarks last.
func runTraced(cfg runCfg) (*runResult, error) {
	res := &runResult{Workload: cfg.w.name, Seed: cfg.seed, Traced: true, Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	for _, d := range perLayer {
		res.set(perLayer, d.name, 0)
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	baseCPU, err := untracedPass(cfg, res, set)
	if err != nil {
		return nil, err
	}
	samples, writeP50, err := tracedPass(cfg, res, set, baseCPU)
	if err != nil {
		return nil, err
	}
	set("client.fail_ratio", per(float64(res.Failed), res.Attempted))
	runMicro(cfg, samples, set)
	res.Warnings = append(res.Warnings, sanity(cfg.w, res, writeP50)...)
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// untracedPass measures, with nothing of the rig's wrapped around the
// program, the rate phase (CPU baseline, runtime counters) and then the
// closed-loop saturation phase. It returns the rate phase's CPU per
// operation.
func untracedPass(cfg runCfg, res *runResult, set func(string, float64)) (cpuPerOp float64, err error) {
	a, err := setup(cfg, 0)
	if err != nil {
		return 0, err
	}
	defer a.teardown()
	l := a.l
	l.openLoop(phWarm, cfg.w.rate, cfg.ph.warm, nil)
	before := a.c.counters()
	l.openLoop(phRate, cfg.w.rate, cfg.ph.rate, nil)
	after := a.c.counters()
	l.drain()
	l.closedLoop(phSat, satInFlight, cfg.ph.sat, l.fromGen)
	l.drain()

	rate, sat := l.sliceStats(phRate), l.sliceStats(phSat)
	res.Samples["sat_phase_ops"] = sat.total()
	set("cpu_us_per_op", rate.cpuPerOp)
	set("sat_ops_per_s", sat.opsPerS)
	set("sat_cpu_us_per_op", sat.cpuPerOp)
	grew := after.since(before)
	set("runtime.alloc_bytes_per_op", per(float64(grew.allocBytes), l.completed[phRate].Load()))
	if cpu := grew.cpu.Seconds(); cpu > 0 {
		set("runtime.gc_cpu_pct", grew.gcCPU/cpu*100)
	}
	set("runtime.gc_pause_max_ms", gcPauseMaxMs(before, after))
	a.report(res)
	return rate.cpuPerOp, nil
}

// report runs the oracle on the attempt and adds its verdict and the
// attempt's operation totals to the result. It returns how many
// operations were left in doubt by a crash.
func (a *attempt) report(res *runResult) (inDoubt int64) {
	v, warn := a.check()
	res.Violations = append(res.Violations, v...)
	res.Warnings = append(append(res.Warnings, warn...), a.l.failures()...)
	attempted, failed, inDoubt := a.l.totals()
	res.Attempted += attempted
	res.Failed += failed
	if f := time.Duration(a.l.frozen); f > res.frozen {
		res.frozen = f
	}
	return inDoubt
}

// tracedPass runs the rate phase again on a cluster with the rig's
// wrappers on and rings large enough not to wrap, then — on the crash
// workload — crashes a node under the same schedule. It derives the [C],
// [T] and [R] metrics, writes the trace file, and returns the payloads
// the endpoint wrappers sampled and the traced rate phase's write p50.
func tracedPass(cfg runCfg, res *runResult, set func(string, float64), baseCPU float64) (samples []any, writeP50 float64, err error) {
	// A command leaves about 4N+2 events at N replicas.
	perCmd := 4*cfg.w.nodes + 2
	window := (cfg.ph.warm + cfg.ph.rate + cfg.ph.crash).Seconds() + 1
	a, err := setup(cfg, 2*int(float64(cfg.w.rate)*window)*perCmd+cfg.w.zipfKeys*perCmd)
	if err != nil {
		return nil, 0, err
	}
	defer a.teardown()
	l := a.l
	l.openLoop(phWarm, cfg.w.rate, cfg.ph.warm, nil)
	for _, ep := range a.c.eps {
		ep.reset()
	}
	before := a.c.counters()
	rateStart := time.Now()
	l.openLoop(phRate, cfg.w.rate, cfg.ph.rate, nil)
	rateEnd := time.Now()
	grew := a.c.counters().since(before)
	l.drain()
	if cfg.w.crash {
		victim := cfg.w.nodes - 1
		deafAt := int(cfg.ph.crashLeadIn.Seconds() * float64(cfg.w.rate))
		crashAt := deafAt + int(deafFor.Seconds()*float64(cfg.w.rate))
		l.openLoop(phCrash, cfg.w.rate, cfg.ph.crash, func(i int) {
			switch i {
			case deafAt:
				a.c.deafen(victim)
			case crashAt:
				l.injectCrash(victim)
			}
		})
		l.drain()
		var stall time.Duration
		l.tab.each(func(_ int64, r *opRec) {
			if r.phase == phCrash && int(r.node) != victim && r.ok() && r.latency() > stall {
				stall = r.latency()
			}
		})
		set("caesar.failover_stall_ms", ms(stall))
	}
	rate := l.sliceStats(phRate)
	ops := l.completed[phRate].Load()

	// client [T]
	writes := l.latencies(phRate, opPut)
	set("client.write_p90_ms", rate.p90[opPut])
	set("client.write_p99_ms", quantile(writes, 0.99))
	tailQ, tailV := tailQuantile(writes)
	set("client.write_ptail_ms", tailV)
	set("client.samples", float64(len(writes)))
	res.Samples["client.write_ptail_permille"] = int(tailQ * 1000)
	set("gen.max_late_ms", ms(time.Duration(l.maxLate[phRate])))
	set("reads.read_p50_ms", rate.p50[opRead])
	set("xshard.tx_p50_ms", rate.p50[opTx])

	// tcpnet [C] + [T]
	set("tcpnet.msgs_per_op", per(float64(grew.netMsgs), ops))
	set("tcpnet.bytes_per_op", per(float64(grew.netBytes), ops))
	set("tcpnet.send_block_us_per_op", per(float64(grew.sendNs)/1e3, ops))

	// caesar [C]
	if decided := grew.fast + grew.slow; decided > 0 {
		set("caesar.fast_share", float64(grew.fast)/float64(decided))
	}
	set("caesar.slow_per_kop", per(1000*float64(grew.slow), ops))
	set("caesar.retries_per_kop", per(1000*float64(grew.retries), ops))
	set("caesar.nacks_per_kop", per(1000*float64(grew.nacks), ops))
	set("caesar.blocked_per_kop", per(1000*float64(grew.blocked), ops))
	set("caesar.wait_ms_per_op", per(ms(grew.wait), ops))

	// wal [C]
	set("wal.fsyncs_per_op", per(float64(grew.fsyncs), ops))
	set("wal.records_per_fsync", per(float64(grew.fsyncRecs), grew.fsyncs))
	set("wal.fsync_mean_ms", per(ms(grew.fsyncLat), grew.fsyncs))

	// kvstore [T], reads and xshard [C]
	set("kvstore.apply_us_per_op", per(float64(grew.applyNs)/1e3, ops))
	set("reads.parks_per_kread", per(1000*float64(grew.parks), int64(rate.n[opRead])))
	set("xshard.commits", float64(grew.commits))
	set("xshard.aborts_per_ktx", per(1000*float64(grew.aborts), grew.commits+grew.aborts))

	if baseCPU > 0 {
		set("trace_overhead_pct", (rate.cpuPerOp-baseCPU)/baseCPU*100)
	}

	// The oracle quiesces the cluster, so what follows — the recovery
	// count, the idle read, the rings — sees the crash fully played out.
	set("client.in_doubt", float64(a.report(res)))
	set("caesar.recoveries", float64(a.c.counters().recoveries-before.recoveries))
	set("reads.idle_read_ns", a.idleReadNs(cfg.micro))

	// [R] phases from the rings.
	view := a.c.readRings()
	if view.wrapped {
		res.Warnings = append(res.Warnings, "a trace ring wrapped: the per-command phases miss the oldest commands")
	}
	order, deliverWait, walWait, ack, n := view.phaseMedians(rateStart, rateEnd)
	res.Samples["ring_commands"], res.Samples["ring_events"] = n, view.events
	res.Samples["xshard_holds"] = len(view.holds)
	set("caesar.order_p50_ms", order)
	set("caesar.deliver_wait_p50_ms", deliverWait)
	set("wal.wait_p50_ms", walWait)
	set("caesar.ack_p50_ms", ack)
	set("xshard.hold_p50_ms", median(view.holds))
	tracePath := filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json")
	if err := a.writeTrace(view, tracePath); err != nil {
		return nil, 0, fmt.Errorf("writing %s: %w", tracePath, err)
	}

	samples = a.wireSamples(res.Samples)
	if cfg.w.durable {
		v, msPerKcmd := a.checkReplay()
		res.Violations = append(res.Violations, v...)
		set("wal.replay_ms_per_kcmd", msPerKcmd)
	}
	return samples, rate.p50[opPut], nil
}

// wireSamples merges what the traced endpoints recorded: the sampled
// payloads, and into counts how many messages of each type were sent.
func (a *attempt) wireSamples(counts map[string]int) []any {
	var out []any
	for _, ep := range a.c.eps {
		ep.mu.Lock()
		out = append(out, ep.samples...)
		for typ, n := range ep.byType {
			counts["sent"+typ] += int(n)
		}
		ep.mu.Unlock()
	}
	return out
}

// sanity checks a traced result against what a correctly wired rig must
// show. Misses are warnings, not failures: they flag the rig, not the
// program.
func sanity(w *workload, res *runResult, writeP50 float64) []string {
	var out []string
	m := func(name string) float64 { return res.Metrics[name].Value }
	switch w.name {
	case "lan3-mem":
		if v := m("tcpnet.msgs_per_op"); v < 5.5 || v > 7.5 {
			out = append(out, fmt.Sprintf("tcpnet.msgs_per_op = %.2f, expected about 6", v))
		}
		if v := m("caesar.fast_share"); v <= 0.99 {
			out = append(out, fmt.Sprintf("caesar.fast_share = %.4f, expected above 0.99", v))
		}
	case "geo5-conflict":
		if floor := minQuorumRTTms(w); writeP50 < floor {
			out = append(out, fmt.Sprintf("write p50 %.2f ms is below the smallest injected fast-quorum round trip %.2f ms", writeP50, floor))
		}
	}
	if w.durable {
		if m("wal.fsyncs_per_op") <= 0 {
			out = append(out, "wal.fsyncs_per_op is 0 on the durable workload: the log is not syncing")
		}
	} else if m("wal.fsyncs_per_op") != 0 {
		out = append(out, "wal.fsyncs_per_op is not 0 on an in-memory workload")
	}
	return out
}
