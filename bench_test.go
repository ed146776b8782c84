package caesar_test

// One benchmark per table/figure of the paper's evaluation (§VI), plus
// ablation benches for the design decisions DESIGN.md calls out. Each
// bench runs a miniature of the corresponding experiment on the simulated
// five-site WAN and reports paper-unit metrics:
//
//	paper_ms_<site>   mean latency at a site, rescaled to paper milliseconds
//	cmds_per_s        cluster throughput as measured
//	slow_path_pct     share of decisions taken on the slow path
//
// The experiment itself runs once per benchmark (wall-clock driven); the
// b.N loop is a no-op, so plain `go test -bench=.` and `-benchtime=1x`
// report the same metrics. Full-scale runs: cmd/caesar-bench.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/harness"
	"github.com/caesar-consensus/caesar/internal/memnet"
)

// benchCache memoises experiment results per benchmark name: the testing
// framework re-invokes a benchmark body while scaling b.N, and the
// wall-clock experiment must only run once regardless.
var (
	benchCacheMu sync.Mutex
	benchCache   = map[string]harness.Result{}
)

func runCached(b *testing.B, opts harness.Options) harness.Result {
	b.Helper()
	benchCacheMu.Lock()
	defer benchCacheMu.Unlock()
	if res, ok := benchCache[b.Name()]; ok {
		return res
	}
	res := harness.Run(opts)
	benchCache[b.Name()] = res
	return res
}

// benchOpts is the miniature configuration used by every figure bench.
func benchOpts(p harness.Protocol, conflict float64) harness.Options {
	return harness.Options{
		Protocol:       p,
		Scale:          0.02,
		ConflictPct:    conflict,
		ClientsPerNode: 8,
		Warmup:         200 * time.Millisecond,
		Duration:       500 * time.Millisecond,
		Seed:           42,
	}
}

// reportSites attaches per-site latency metrics.
func reportSites(b *testing.B, res harness.Result) {
	for i, s := range res.Sites {
		b.ReportMetric(float64(s.MeanLatency)/float64(time.Millisecond),
			"paper_ms_"+memnet.SiteShort[i%5])
	}
	b.ReportMetric(res.Throughput, "cmds_per_s")
	b.ReportMetric(res.SlowRatio()*100, "slow_path_pct")
}

// spin keeps the benchmark contract (b.N iterations) without re-running
// the wall-clock experiment.
func spin(b *testing.B) {
	for i := 0; i < b.N; i++ {
	}
}

// BenchmarkFigure6 reproduces Fig 6: per-site mean latency vs conflict %
// for CAESAR, EPaxos and M2Paxos (batching off).
func BenchmarkFigure6(b *testing.B) {
	for _, proto := range []harness.Protocol{harness.Caesar, harness.EPaxos, harness.M2Paxos} {
		for _, conflict := range harness.ConflictLevels {
			b.Run(fmt.Sprintf("%s/conflict=%v", proto, conflict), func(b *testing.B) {
				res := runCached(b, benchOpts(proto, conflict))
				reportSites(b, res)
				spin(b)
			})
		}
	}
}

// BenchmarkFigure7 reproduces Fig 7: per-site latency of Multi-Paxos with
// a close (Ireland) and faraway (Mumbai) leader, Mencius, and CAESAR at 0%.
func BenchmarkFigure7(b *testing.B) {
	for _, proto := range []harness.Protocol{
		harness.MultiPaxosIR, harness.MultiPaxosIN, harness.Mencius, harness.Caesar,
	} {
		b.Run(string(proto), func(b *testing.B) {
			res := runCached(b, benchOpts(proto, 0))
			reportSites(b, res)
			spin(b)
		})
	}
}

// BenchmarkFigure8 reproduces Fig 8: latency per site while growing the
// number of connected clients (10% conflicts).
func BenchmarkFigure8(b *testing.B) {
	for _, proto := range []harness.Protocol{harness.Caesar, harness.EPaxos, harness.M2Paxos} {
		for _, clients := range []int{5, 50, 500, 1000} {
			b.Run(fmt.Sprintf("%s/clients=%d", proto, clients), func(b *testing.B) {
				o := benchOpts(proto, 10)
				o.ClientsPerNode = clients / 5
				if o.ClientsPerNode == 0 {
					o.ClientsPerNode = 1
				}
				res := runCached(b, o)
				reportSites(b, res)
				spin(b)
			})
		}
	}
}

// BenchmarkFigure9 reproduces Fig 9: throughput vs conflict % with
// batching off and on. Conflict-oblivious protocols report only the 0%
// point, as in the paper.
func BenchmarkFigure9(b *testing.B) {
	for _, batching := range []bool{false, true} {
		name := "batching=off"
		if batching {
			name = "batching=on"
		}
		protos := []harness.Protocol{
			harness.EPaxos, harness.Caesar, harness.M2Paxos,
			harness.MultiPaxosIR, harness.MultiPaxosIN,
		}
		if !batching {
			protos = append(protos, harness.Mencius)
		}
		for _, proto := range protos {
			conflictOblivious := proto == harness.Mencius ||
				proto == harness.MultiPaxosIR || proto == harness.MultiPaxosIN
			for _, conflict := range harness.ConflictLevels {
				if conflictOblivious && conflict != 0 {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/conflict=%v", name, proto, conflict), func(b *testing.B) {
					o := benchOpts(proto, conflict)
					o.Batching = batching
					o.ClientsPerNode = 80 // saturate: Fig 9 is a throughput experiment
					res := runCached(b, o)
					b.ReportMetric(res.Throughput, "cmds_per_s")
					spin(b)
				})
			}
		}
	}
}

// BenchmarkFigure10 reproduces Fig 10: % of commands decided on the slow
// path for EPaxos vs CAESAR across conflict levels.
func BenchmarkFigure10(b *testing.B) {
	for _, proto := range []harness.Protocol{harness.EPaxos, harness.Caesar} {
		for _, conflict := range harness.ConflictLevels {
			b.Run(fmt.Sprintf("%s/conflict=%v", proto, conflict), func(b *testing.B) {
				o := benchOpts(proto, conflict)
				o.ClientsPerNode = 40 // the paper derives Fig 10 from the loaded runs
				res := runCached(b, o)
				b.ReportMetric(res.SlowRatio()*100, "slow_path_pct")
				spin(b)
			})
		}
	}
}

// BenchmarkFigure11a reproduces Fig 11a: the proportion of CAESAR latency
// spent per ordering phase (propose / retry / deliver).
func BenchmarkFigure11a(b *testing.B) {
	for _, conflict := range harness.ConflictLevels {
		b.Run(fmt.Sprintf("conflict=%v", conflict), func(b *testing.B) {
			o := benchOpts(harness.Caesar, conflict)
			o.ClientsPerNode = 40
			res := runCached(b, o)
			b.ReportMetric(res.ProposeFrac*100, "propose_pct")
			b.ReportMetric(res.RetryFrac*100, "retry_pct")
			b.ReportMetric(res.DeliverFrac*100, "deliver_pct")
			spin(b)
		})
	}
}

// BenchmarkFigure11b reproduces Fig 11b: mean wait-condition time per site
// for 2/10/30% conflicts.
func BenchmarkFigure11b(b *testing.B) {
	for _, conflict := range harness.Figure11bConflicts {
		b.Run(fmt.Sprintf("conflict=%v", conflict), func(b *testing.B) {
			o := benchOpts(harness.Caesar, conflict)
			o.ClientsPerNode = 40
			res := runCached(b, o)
			for i, s := range res.Sites {
				b.ReportMetric(float64(s.MeanWait)/float64(time.Millisecond),
					"wait_ms_"+memnet.SiteShort[i%5])
			}
			spin(b)
		})
	}
}

// BenchmarkFigure12 reproduces Fig 12: throughput with one node crashing
// mid-run; the min/recovered throughput ratio summarises the dip.
func BenchmarkFigure12(b *testing.B) {
	for _, proto := range []harness.Protocol{harness.EPaxos, harness.Caesar} {
		b.Run(string(proto), func(b *testing.B) {
			o := benchOpts(proto, 2)
			o.ClientsPerNode = 20
			o.Duration = 4 * time.Second
			o.CrashNode = 4
			o.CrashAfter = 1500 * time.Millisecond
			o.SampleInterval = 250 * time.Millisecond
			res := runCached(b, o)
			b.ReportMetric(res.Throughput, "cmds_per_s")
			var before, after float64
			var nb, na int
			for _, p := range res.Timeline {
				if p.At < o.CrashAfter {
					before += p.Tps
					nb++
				} else if p.At > o.CrashAfter+time.Second {
					after += p.Tps
					na++
				}
			}
			if nb > 0 {
				b.ReportMetric(before/float64(nb), "tps_before_crash")
			}
			if na > 0 {
				b.ReportMetric(after/float64(na), "tps_after_recovery")
			}
			spin(b)
		})
	}
}

// BenchmarkAblationWaitCondition quantifies §IV-A: CAESAR with the wait
// condition disabled (blocked proposals are rejected instead) takes far
// more slow decisions under conflicts.
func BenchmarkAblationWaitCondition(b *testing.B) {
	for _, proto := range []harness.Protocol{harness.Caesar, harness.CaesarNoWait} {
		for _, conflict := range []float64{10, 30} {
			b.Run(fmt.Sprintf("%s/conflict=%v", proto, conflict), func(b *testing.B) {
				res := runCached(b, benchOpts(proto, conflict))
				b.ReportMetric(res.SlowRatio()*100, "slow_path_pct")
				b.ReportMetric(float64(res.Sites[0].MeanLatency)/float64(time.Millisecond), "paper_ms_VA")
				spin(b)
			})
		}
	}
}

// BenchmarkAblationQuorumSize quantifies the ⌈3N/4⌉ fast-quorum cost
// (§VI: CAESAR contacts one node more than EPaxos at N=5) by varying the
// cluster size.
func BenchmarkAblationQuorumSize(b *testing.B) {
	for _, nodes := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			o := benchOpts(harness.Caesar, 10)
			o.Nodes = nodes
			res := runCached(b, o)
			b.ReportMetric(float64(res.Sites[0].MeanLatency)/float64(time.Millisecond), "paper_ms_site0")
			b.ReportMetric(res.Throughput, "cmds_per_s")
			spin(b)
		})
	}
}
