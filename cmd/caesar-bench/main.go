// Command caesar-bench regenerates the paper's evaluation (Figures 6–12)
// on the simulated five-site WAN. Each figure prints the same rows/series
// the paper plots. It measures the protocols against each other, as the
// paper does; the system's own performance is measured by bench/
// (BENCHMARK.json), over real TCP and real fsync.
//
// Usage:
//
//	caesar-bench -figure 6            # one figure
//	caesar-bench -figure all          # the whole evaluation
//	caesar-bench -figure 9 -scale 0.1 -duration 5s
//
// Scale 1.0 reproduces the paper's real WAN latencies (slow); the default
// 0.05 keeps delay ratios while running 20× faster. Reported latencies are
// rescaled to paper milliseconds.
//
// A figure whose clients saw a command fail or time out is not a
// measurement: caesar-bench says so on stderr and exits 1. Figure 12 is
// exempt — it crashes a node on purpose, and the commands in flight at
// that node are expected to be lost.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/caesar-consensus/caesar/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "caesar-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figure   = flag.String("figure", "all", "figure to regenerate: 6, 7, 8, 9, 10, 11a, 11b, 12, or all")
		scale    = flag.Float64("scale", 0.05, "WAN latency scale (1.0 = real EC2 latencies)")
		duration = flag.Duration("duration", 3*time.Second, "measurement window per data point")
		warmup   = flag.Duration("warmup", time.Second, "warmup before each measurement")
		clients  = flag.Int("clients", 10, "closed-loop clients per node (latency figures)")
		seed     = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	base := harness.Options{
		Scale:          *scale,
		Duration:       *duration,
		Warmup:         *warmup,
		ClientsPerNode: *clients,
		Seed:           *seed,
	}
	w := os.Stdout
	runs := map[string]func() []harness.Result{
		"6": func() []harness.Result { return harness.Figure6(w, base) },
		"7": func() []harness.Result { return harness.Figure7(w, base) },
		"8": func() []harness.Result { return harness.Figure8(w, base) },
		"9": func() []harness.Result {
			rs := harness.Figure9(w, base, false)
			fmt.Fprintln(w)
			return append(rs, harness.Figure9(w, base, true)...)
		},
		"10":  func() []harness.Result { return harness.Figure10(w, base) },
		"11a": func() []harness.Result { return harness.Figure11a(w, base) },
		"11b": func() []harness.Result { return harness.Figure11b(w, base) },
		"12":  func() []harness.Result { return harness.Figure12(w, base) },
	}
	figures := []string{*figure}
	if *figure == "all" {
		figures = []string{"6", "7", "8", "9", "10", "11a", "11b", "12"}
	}
	bad := false
	for _, f := range figures {
		fn, ok := runs[f]
		if !ok {
			return fmt.Errorf("unknown figure %q", f)
		}
		results := fn()
		if *figure == "all" {
			fmt.Fprintln(w)
		}
		if f != "12" && harness.ReportFailed(os.Stderr, f, results) > 0 {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
	return nil
}
