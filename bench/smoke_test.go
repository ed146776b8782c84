package main

import (
	"flag"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// TestMain lets the four workloads of TestSmoke run side by side whatever
// the core count: they mostly wait (on fsync, on injected delay, on phase
// timers), and the default cap of GOMAXPROCS parallel subtests would run
// them in two waves on the two-core sandbox.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := flag.Set("test.parallel", "4"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmoke is the benchmark's CI coverage: every workload, untraced and
// traced, with one-second phases and the oracle on. It pins the emitted
// workload and metric names to BENCHMARK.json and checks every value is a
// sane number; it asserts nothing about speed, so it runs the workloads
// at a tenth of their rate, with a small zipfian pool and a short
// saturation phase: the packages that `go test ./...` runs beside this
// one hold timing-sensitive conformance tests, and a test that saturates
// the machine makes them flake.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var specWorkloads, ourWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		ourWorkloads = append(ourWorkloads, w.name)
	}
	if !sameSet(specWorkloads, ourWorkloads) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", specWorkloads, ourWorkloads)
	}
	var wantE2E, wantLayer []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	for _, n := range append(append(append([]string(nil), wantE2E...), wantLayer...), specWorkloads...) {
		if !nameOK.MatchString(n) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", n)
		}
	}

	for i := range workloads {
		light := workloads[i]
		light.rate /= 10
		if light.zipfKeys > 0 {
			light.zipfKeys = 1024
		}
		w := &light
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runCfg{
				w: w, seed: defaultSeed, started: time.Now(), micro: 20 * time.Millisecond, outDir: t.TempDir(),
				ph: phases{warm: 300 * time.Millisecond, rate: time.Second},
			}
			res, err := runUntraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, wantE2E)

			// The traced run takes the second seed.
			cfg.seed = defaultSeed + 1
			cfg.ph.sat = 200 * time.Millisecond
			if w.crash {
				cfg.ph.crash, cfg.ph.crashLeadIn = time.Second, 200*time.Millisecond
			}
			res, err = runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, wantLayer)
			if got := res.Samples["ring_commands"]; got == 0 {
				t.Error("the traced run derived no per-command phases from the rings")
			}
			if w.durable && res.Metrics["wal.wait_p50_ms"].Value <= 0 {
				t.Error("wal.wait_p50_ms is empty on the durable workload")
			}
			if w.txPct > 0 && res.Metrics["xshard.hold_p50_ms"].Value <= 0 {
				t.Error("xshard.hold_p50_ms is empty on the transactional workload")
			}
			if res.Metrics["caesar.order_p50_ms"].Value <= 0 {
				t.Error("caesar.order_p50_ms is empty")
			}
		})
	}
}

func checkResult(t *testing.T, res *runResult, want []string) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("oracle: %s", v)
	}
	if !res.Correct {
		t.Error("result is not correct")
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d (warnings %v)", res.Attempted, res.Failed, res.Warnings)
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		// trace_overhead_pct is a difference of two noisy runs and may
		// come out negative; everything else is a magnitude.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && name != "trace_overhead_pct") {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	if !sameSet(got, want) {
		sort.Strings(got)
		t.Errorf("emitted metrics %v, BENCHMARK.json names %v", got, want)
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
