// Command bench is the repository's benchmark: unmodeled 3- and 5-replica
// CAESAR deployments over real loopback TCP (or memnet with the paper's
// geo delays) with real fsync, four workloads, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	go run ./bench                         all workloads, untraced + traced, results file
//	go run ./bench -repeat 3               the untraced set three times, spread against the bounds
//	go run ./bench -compare a.json b.json  per-row deltas of two results files
//	go run ./bench -workload lan3-mem -seed 7 -seconds 20 -trace 0
//	                                       one run in this process; last stdout line is its JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print its result as the last line (the driver's mode)")
		seed    = flag.Int64("seed", defaultSeed, "workload seed: the same seed generates the same operation stream")
		seconds = flag.Int("seconds", defaultSecs, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run the untraced set this many times and report each metric's spread against its bound")
		compare = flag.Bool("compare", false, "compare two results files given as arguments")
		outDir  = flag.String("out", "bench/out", "directory for results, trace files and temporary data dirs")
		results = flag.String("results", "", "where a full run writes its results file (default <out>/results.json)")
		result  = flag.String("result", "", "with -workload: also write the run's full result to this file")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		if *seconds < 1 {
			fatalf("-seconds must be at least 1")
		}
		os.Exit(runChild(runCfg{
			w: w, seed: *seed, ph: phasesFor(w, *seconds, *traceOn == 1),
			started: processStart, micro: 300 * time.Millisecond, outDir: *outDir,
		}, *traceOn == 1, *result))
	default:
		if *results == "" {
			*results = filepath.Join(*outDir, "results.json")
		}
		os.Exit(runParent(*seed, *seconds, *repeat, *outDir, *results))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// childLine is the one JSON object the driver reads from the last line of
// a child's standard output.
type childLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild runs one workload in this process. Diagnostics go to stderr,
// the full result to resultPath if set, and the contract line to stdout.
// It returns the exit code: non-zero when the run could not complete or
// the oracle found a violation.
func runChild(cfg runCfg, traced bool, resultPath string) int {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	run := runUntraced
	if traced {
		run = runTraced
	}
	// A run takes about twice its measured seconds. One that is still
	// going long after that has wedged the program; end it, without a
	// result, while the caller is still waiting (the driver allows 180 s
	// for its 20-second runs).
	limit := runSlack + 2*(cfg.ph.rate+cfg.ph.sat)
	wedged := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", cfg.w.name, limit)
		os.Exit(3)
	})
	defer wedged.Stop()
	res, err := run(cfg)
	// A host that freezes the sandbox for longer than the program's
	// shortest protocol timer fires those timers all at once on resume.
	// That is the host's fault injection, not the workload's (what the
	// program does with it is in README, "Findings at the baseline"): the
	// disturbed run is discarded and the workload run again, once.
	if err == nil && res.frozen > freezeLimit {
		fmt.Fprintf(os.Stderr, "bench: the host froze the process for %v (%d of %d operations failed, %d violations): run discarded and repeated\n",
			res.frozen.Round(time.Millisecond), res.Failed, res.Attempted, len(res.Violations))
		cfg.started = time.Now()
		res, err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, "bench: VIOLATION:", v)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "bench: warning:", w)
	}
	if resultPath != "" {
		full, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(resultPath, full, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	line, err := json.Marshal(childLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
