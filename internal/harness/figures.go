package harness

import (
	"fmt"
	"io"
	"time"

	"github.com/caesar-consensus/caesar/internal/memnet"
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

// ReportFailed sums the client commands that failed or timed out over one
// figure's runs and, when there were any, writes the line caesar-bench
// ends that figure with: a latency or throughput row computed around
// failed commands is not a measurement. It returns the sum.
func ReportFailed(w io.Writer, figure string, results []Result) int64 {
	var n int64
	for _, r := range results {
		n += r.Failed
	}
	if n > 0 {
		fmt.Fprintf(w, "figure %s: %d client commands failed or timed out\n", figure, n)
	}
	return n
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
