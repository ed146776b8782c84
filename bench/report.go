package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the tool itself reads: the
// names, and the end-to-end metrics' regression bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// workloadReport is one workload's merged untraced + traced result.
type workloadReport struct {
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   map[string]int         `json:"samples,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
}

// resultsFile is what a full run writes; -compare reads two of them.
type resultsFile struct {
	GitSHA        string                     `json:"git_sha"`
	Seed          int64                      `json:"seed"`
	NProc         int                        `json:"nproc"`
	GoVersion     string                     `json:"go_version"`
	Seconds       int                        `json:"seconds"`
	InjectedDelay map[string]string          `json:"injected_delay"`
	Phases        map[string]map[string]any  `json:"phases"`
	Workloads     map[string]*workloadReport `json:"workloads"`
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newResultsFile(seed int64, seconds int) *resultsFile {
	rf := &resultsFile{
		GitSHA: gitSHA(), Seed: seed, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Seconds: seconds,
		InjectedDelay: map[string]string{}, Phases: map[string]map[string]any{}, Workloads: map[string]*workloadReport{},
	}
	for i := range workloads {
		w := &workloads[i]
		rf.InjectedDelay[w.name] = "none (loopback TCP)"
		if w.geo {
			rf.InjectedDelay[w.name] = fmt.Sprintf("memnet one-way delay = paper RTT/2 x %g", geoScale)
		}
		u, t := phasesFor(w, seconds, false), phasesFor(w, seconds, true)
		rf.Phases[w.name] = map[string]any{
			"warm_s": u.warm.Seconds(), "rate_s": u.rate.Seconds(), "slice_s": sliceLen.Seconds(),
			"quiet_window_ops": quietWindowOps, "quiet_share": quietShare, "issue_window": issueWindow,
			"traced_rate_s": t.rate.Seconds(), "traced_sat_s": t.sat.Seconds(), "traced_crash_s": t.crash.Seconds(),
		}
	}
	return rf
}

// spawn runs one workload in a fresh child process of this binary (clean
// heap, clean getrusage) and returns its full result.
func spawn(w *workload, seed int64, seconds, traced int, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	resultPath := filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", w.name, traced))
	os.Remove(resultPath)
	cmd := exec.Command(self,
		"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(traced), "-out", outDir, "-result", resultPath)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	raw, err := os.ReadFile(resultPath)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", w.name, traced, runErr)
		}
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s (trace %d): the oracle found %d violations", w.name, traced, len(res.Violations))
	}
	return &res, runErr
}

// runParent runs the whole benchmark: every workload, one after another,
// each in its own child process.
func runParent(seed int64, seconds, repeat int, outDir, resultsPath string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root:", err)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if repeat > 0 {
		return runRepeat(spec, seed, seconds, repeat, outDir)
	}
	rf := newResultsFile(seed, seconds)
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, w.why)
		untraced, err := spawn(w, seed, seconds, 0, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		traced, err := spawn(w, seed, seconds, 1, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep := &workloadReport{
			EndToEnd: untraced.Metrics, PerLayer: traced.Metrics,
			Attempted: untraced.Attempted + traced.Attempted, Failed: untraced.Failed + traced.Failed,
			Samples:  map[string]int{},
			Warnings: append(untraced.Warnings, traced.Warnings...),
		}
		for k, v := range untraced.Samples {
			rep.Samples[k] = v
		}
		for k, v := range traced.Samples {
			rep.Samples["traced."+k] = v
		}
		rf.Workloads[w.name] = rep
		printWorkload(w, rep)
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		err = os.WriteFile(resultsPath, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("\nresults: %s (git %s, seed %d, nproc %d, %s, %d s per run); traces: %s\n",
		resultsPath, rf.GitSHA, rf.Seed, rf.NProc, rf.GoVersion, rf.Seconds, filepath.Join(outDir, "trace-<workload>.json"))
	return 0
}

func printWorkload(w *workload, rep *workloadReport) {
	fmt.Printf("\n== %s — %s\n", w.name, w.why)
	fmt.Printf("   oracle passed; %d operations attempted, %d failed\n", rep.Attempted, rep.Failed)
	fmt.Println("   end to end (untraced run):")
	for _, d := range endToEnd {
		fmt.Printf("     %-30s %14.4f %s\n", d.name, rep.EndToEnd[d.name].Value, d.unit)
	}
	fmt.Println("   per layer (traced run, microbenchmarks):")
	for _, d := range perLayer {
		fmt.Printf("     %-30s %14.4f %s\n", d.name, rep.PerLayer[d.name].Value, d.unit)
	}
	var keys []string
	for k := range rep.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("   samples:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, rep.Samples[k])
	}
	fmt.Println()
	for _, warn := range rep.Warnings {
		fmt.Printf("   warning: %s\n", warn)
	}
}

// runRepeat runs the untraced set n times and reports, per (workload,
// end-to-end metric), min / median / max and the spread against the
// metric's bound. It fails if any two sets disagree by more than the
// bound.
func runRepeat(spec *benchmarkSpec, seed int64, seconds, n int, outDir string) int {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < n; set++ {
		for i := range workloads {
			w := &workloads[i]
			fmt.Fprintf(os.Stderr, "bench: set %d/%d: %s\n", set+1, n, w.name)
			res, err := spawn(w, seed, seconds, 0, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	fmt.Printf("%-14s %-20s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	disagree := 0
	for i := range workloads {
		w := &workloads[i]
		for _, m := range spec.EndToEnd {
			vs := append([]float64(nil), values[w.name][m.Name]...)
			sort.Float64s(vs)
			med := median(vs)
			spread := 0.0
			if med != 0 {
				spread = (vs[len(vs)-1] - vs[0]) / med
			}
			flag := ""
			if spread > m.Bound {
				flag = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%%s\n",
				w.name, m.Name, vs[0], med, vs[len(vs)-1], 100*spread, 100*m.Bound, flag)
		}
	}
	fmt.Printf("spread = (max - min) / median over %d sets of the same code, seed %d\n", n, seed)
	if disagree > 0 {
		fmt.Printf("%d (workload, metric) pairs disagree beyond their bound\n", disagree)
		return 1
	}
	return 0
}

// compareFiles prints, for every metric of every workload present in both
// files, the two values and the change relative to the first file.
func compareFiles(pathA, pathB string) error {
	load := func(path string) (*resultsFile, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rf, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (git %s, seed %d, nproc %d, %d s)\nB = %s (git %s, seed %d, nproc %d, %d s)\n",
		pathA, a.GitSHA, a.Seed, a.NProc, a.Seconds, pathB, b.GitSHA, b.Seed, b.NProc, b.Seconds)
	fmt.Printf("%-14s %-30s %14s %14s %10s\n", "workload", "metric", "A", "B", "B vs A")
	row := func(w, name string, ma, mb map[string]metricValue) {
		va, okA := ma[name]
		vb, okB := mb[name]
		if !okA || !okB {
			return
		}
		change := "n/a"
		if va.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb.Value-va.Value)/va.Value)
		}
		fmt.Printf("%-14s %-30s %14.4f %14.4f %10s  (base A = %.4f %s)\n", w, name, va.Value, vb.Value, change, va.Value, va.Unit)
	}
	for i := range workloads {
		w := workloads[i].name
		ra, rb := a.Workloads[w], b.Workloads[w]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			row(w, d.name, ra.EndToEnd, rb.EndToEnd)
		}
		for _, d := range perLayer {
			row(w, d.name, ra.PerLayer, rb.PerLayer)
		}
	}
	return nil
}
