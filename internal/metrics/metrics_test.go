package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 20*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 30*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	// Bucketed quantiles err high by at most one 9% bucket.
	for _, q := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.99, 990 * time.Millisecond}} {
		got := h.Quantile(q.q)
		if got < q.want || got > q.want*115/100 {
			t.Errorf("Quantile(%v) = %v, want within [%v, +15%%]", q.q, got, q.want)
		}
	}
}

// Local reads sit around 10–100µs; the histogram floor must resolve
// quantiles down there instead of collapsing everything into bucket 0
// (the pre-observability behavior with a 100µs floor).
func TestHistogramSubMillisecondResolution(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Nanosecond) // 0.1µs .. 100µs
	}
	for _, q := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Microsecond}, {0.99, 99 * time.Microsecond}} {
		got := h.Quantile(q.q)
		if got < q.want || got > q.want*115/100 {
			t.Errorf("Quantile(%v) = %v, want within [%v, +15%%]", q.q, got, q.want)
		}
	}
	// Distinct sub-100µs magnitudes must land in distinct buckets.
	if bucketFor(10*time.Microsecond) == bucketFor(90*time.Microsecond) {
		t.Error("10µs and 90µs collapsed into one bucket")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)
	if h.Max() != 0 || h.Mean() != 0 || h.Count() != 1 {
		t.Fatal("negative observation not clamped to zero")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Fatalf("lost observations: %d", h.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: the mean never exceeds the max and count increments by one per
// observation.
func TestHistogramInvariants(t *testing.T) {
	f := func(samples []uint32) bool {
		h := NewHistogram()
		for _, s := range samples {
			h.Observe(time.Duration(s % 1e9))
		}
		if h.Count() != int64(len(samples)) {
			return false
		}
		if h.Mean() > h.Max() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDurationSum(t *testing.T) {
	var s DurationSum
	s.Add(2 * time.Second)
	s.Add(4 * time.Second)
	s.Add(-time.Second) // ignored
	if s.Count() != 2 || s.Total() != 6*time.Second || s.Mean() != 3*time.Second {
		t.Fatalf("count=%d total=%v mean=%v", s.Count(), s.Total(), s.Mean())
	}
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.ObserveLatency(time.Second) // must not panic
	r.Reset()
	if r.SlowRatio() != 0 {
		t.Fatal("nil recorder slow ratio")
	}
}

func TestRecorderSlowRatio(t *testing.T) {
	r := NewRecorder()
	if r.SlowRatio() != 0 {
		t.Fatal("empty recorder ratio")
	}
	r.FastDecisions.Add(3)
	r.SlowDecisions.Add(1)
	if got := r.SlowRatio(); got != 0.25 {
		t.Fatalf("SlowRatio = %v", got)
	}
}

func TestRecorderGroupLinks(t *testing.T) {
	parent := NewRecorder()
	g0, g1 := parent.Group(), parent.Group()
	g0.FastDecisions.Inc()
	g0.FastDecisions.Inc()
	g1.FastDecisions.Inc()
	if g0.FastDecisions.Load() != 2 || g1.FastDecisions.Load() != 1 {
		t.Fatalf("per-group counts = %d/%d", g0.FastDecisions.Load(), g1.FastDecisions.Load())
	}
	if parent.FastDecisions.Load() != 3 {
		t.Fatalf("aggregate = %d, want 3", parent.FastDecisions.Load())
	}
	g0.WaitCondition.Add(2 * time.Second)
	g1.WaitCondition.Add(time.Second)
	if parent.WaitCondition.Total() != 3*time.Second || parent.WaitCondition.Count() != 2 {
		t.Fatalf("aggregate wait = %v/%d", parent.WaitCondition.Total(), parent.WaitCondition.Count())
	}
	// Histograms are shared by pointer: a child observation is the
	// node-wide observation.
	g0.ObserveLatency(time.Millisecond)
	if parent.Latency.Count() != 1 {
		t.Fatal("child latency observation not visible on parent")
	}
	// Group of nil stays nil-safe.
	var nilRec *Recorder
	if nilRec.Group() != nil {
		t.Fatal("Group of nil recorder")
	}
}

func TestRecorderGroupConcurrent(t *testing.T) {
	parent := NewRecorder()
	var wg sync.WaitGroup
	groups := make([]*Recorder, 4)
	for i := range groups {
		groups[i] = parent.Group()
	}
	for _, g := range groups {
		wg.Add(1)
		go func(g *Recorder) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				g.Executed.Inc()
			}
		}(g)
	}
	wg.Wait()
	if parent.Executed.Load() != 40000 {
		t.Fatalf("aggregate = %d, want 40000", parent.Executed.Load())
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

// TestObserveLatencyRefRendersOnlyTheExemplar: the reference — a command
// ID, as CAESAR's delivery passes it — is rendered for a sample that
// becomes the exemplar and for no other, so the common delivery allocates
// nothing.
func TestObserveLatencyRefRendersOnlyTheExemplar(t *testing.T) {
	r := NewRecorder()
	top := command.ID{Node: 1, Seq: 7}
	r.ObserveLatencyRef(50*time.Millisecond, top.String)
	id := command.ID{Node: 2, Seq: 9}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.ObserveLatencyRef(2*time.Millisecond, id.String)
	}); allocs != 0 {
		t.Fatalf("a sample below the top bucket allocates %.1f times", allocs)
	}
	if _, ref, ok := r.Latency.Exemplar(); !ok || ref != top.String() {
		t.Fatalf("exemplar %q, want %q", ref, top.String())
	}
	r.ObserveLatencyRef(90*time.Millisecond, id.String)
	if _, ref, _ := r.Latency.Exemplar(); ref != id.String() {
		t.Fatalf("a new top bucket left exemplar %q, want %q", ref, id.String())
	}
}
