package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart anchors the set-up measurement at the start of the child
// process, so runtime and package initialisation are counted.
var processStart = time.Now()

// runCfg describes one workload run in one process.
type runCfg struct {
	w       *workload
	seed    int64
	ph      phases
	started time.Time     // when the run began: set-up is timed from here
	micro   time.Duration // time budget of each isolated microbenchmark
	outDir  string        // trace files and data dirs live here
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one workload run reports.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    map[string]int         `json:"samples"`
	Violations []string               `json:"violations,omitempty"`
	Warnings   []string               `json:"warnings,omitempty"`

	// frozen is the longest the pacing goroutine overslept in the run.
	frozen time.Duration
}

func (r *runResult) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in workloads.go")
}

// attempt is one cluster's life: built, set up, loaded, checked, stopped.
type attempt struct {
	cfg runCfg
	c   *cluster
	l   *loadgen
	ks  *keyspace

	tornDown bool
}

// setup builds the workload's cluster and takes it to the point where it
// serves: the first operation is acknowledged and, for the zipfian
// workload, every pool key has been written once through consensus.
func setup(cfg runCfg, ringEvents int) (*attempt, error) {
	ks := newKeyspace(cfg.w)
	dataRoot := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d", cfg.w.name, os.Getpid()))
	if err := os.RemoveAll(dataRoot); err != nil {
		return nil, err
	}
	c, err := buildCluster(cfg.w, cfg.seed, dataRoot, ringEvents)
	if err != nil {
		return nil, err
	}
	a := &attempt{cfg: cfg, c: c, ks: ks, l: newLoadgen(c, ks, newGenerator(cfg.w, ks, cfg.seed))}
	first := true
	a.l.closedLoop(phSetup, 1, 0, func() (genOp, bool) {
		ok := first
		first = false
		return genOp{kind: opPut, node: 0, key: 0, key2: -1}, ok
	})
	if cfg.w.zipfKeys > 0 {
		i := 0
		a.l.closedLoop(phSetup, preloadWindow, 0, func() (genOp, bool) {
			if i >= cfg.w.zipfKeys {
				return genOp{}, false
			}
			op := genOp{kind: opPut, node: i % cfg.w.nodes, key: int32(i), key2: -1}
			i++
			return op, true
		})
	}
	if got, want := a.l.completed[phSetup].Load(), a.l.tab.n; got != want {
		a.teardown()
		return nil, fmt.Errorf("set-up: %d of %d operations acknowledged", got, want)
	}
	return a, nil
}

// teardown stops the rig and the cluster and removes its data.
func (a *attempt) teardown() {
	if a.tornDown {
		return
	}
	a.tornDown = true
	// The cluster first: a reader still inside a node returns once the
	// node has stopped, and would hold close up if the node were wedged.
	a.c.stop()
	a.l.close()
	a.c.removeData()
	if len(a.c.dirs) > 0 {
		os.Remove(filepath.Dir(a.c.dirs[0]))
	}
}

// mallocCount is the process's cumulative count of heap allocations.
func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeapMB is the heap still reachable after forced collections: two,
// because a sync.Pool gives up what it holds only over two cycles.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runUntraced measures the end-to-end metrics: nothing of the rig's is
// wrapped around the program, and the nodes run the server's own
// observability configuration.
func runUntraced(cfg runCfg) (*runResult, error) {
	res := &runResult{Workload: cfg.w.name, Seed: cfg.seed, Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	a, err := setup(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer a.teardown()
	l := a.l
	l.openLoop(phWarm, cfg.w.rate, cfg.ph.warm, nil)
	// Set-up is everything a run spends before it measures: process
	// start, cluster build, first acknowledged operation, preload, and
	// the warm-up that lets connections, caches and lazy set-up settle.
	setupS := time.Since(cfg.started).Seconds()
	mallocs := mallocCount()
	l.openLoop(phRate, cfg.w.rate, cfg.ph.rate, nil)
	mallocs = mallocCount() - mallocs
	l.drain()

	rate := l.sliceStats(phRate)
	res.Samples["rate_phase_ops"] = rate.total()
	res.set(endToEnd, "setup_s", setupS)
	res.set(endToEnd, "write_p50_ms", rate.p50[opPut])
	res.set(endToEnd, "allocs_per_op", per(float64(mallocs), l.completed[phRate].Load()))

	a.report(res)
	// The rig's own records are subtracted from the heap: what is left is
	// what the program retains while it serves. (Dropping the table first
	// made the number bimodal: a completion callback the program still
	// holds pins the 3.5 MB chunk its record lives in.)
	res.set(endToEnd, "live_heap_mb", liveHeapMB()-l.tab.megabytes())
	if cfg.w.durable {
		v, _ := a.checkReplay()
		res.Violations = append(res.Violations, v...)
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}
