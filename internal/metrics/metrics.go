// Package metrics collects the measurements behind the paper's figures:
// command latency distributions (Figs 6–8), throughput (Figs 9, 12), the
// fast/slow decision split (Fig 10), the per-phase latency breakdown
// (Fig 11a) and time spent in CAESAR's wait condition (Fig 11b).
//
// All recording paths are safe for concurrent use and cheap enough for the
// benchmark hot path (atomic adds into fixed bucket arrays).
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential histogram buckets.
const histBuckets = 256

// histGrowth is the per-bucket growth factor. Bucket i covers
// [histMin·g^i, histMin·g^(i+1)); 256 buckets at 9% growth span
// 1µs .. ~3.8e3s, far beyond any latency we record.
const histGrowth = 1.09

// histMin is the lower bound of bucket 0. Node-local reads
// (internal/reads) complete in tens of microseconds, so the floor sits
// at 1µs — a 100µs floor would collapse their whole distribution into
// bucket 0 and destroy read-quantile resolution.
const histMin = 1 * time.Microsecond

var logGrowth = math.Log(histGrowth)

// Histogram is a lock-free exponential-bucket latency histogram. It also
// keeps one exemplar: the reference (a command ID, a key) attached to the
// last observation that landed in the highest bucket seen so far, so a
// tail-latency spike in a scrape links directly to a traceable command.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64

	// exIdx is the highest bucket index an exemplar-carrying observation
	// has hit (-1 when none); the slot behind exMu holds that
	// observation's duration and reference. Off the lock-free Observe
	// path: only ObserveRefFunc (under ObserveRef) touches it, and only for
	// observations at or above the current top bucket.
	exIdx atomic.Int32
	exMu  sync.Mutex
	exDur time.Duration
	exRef string
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.exIdx.Store(-1)
	return h
}

func bucketFor(d time.Duration) int {
	if d < histMin {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histMin)) / logGrowth)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper returns the upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(float64(histMin) * math.Pow(histGrowth, float64(i+1)))
}

// Reset zeroes the histogram. Concurrent Observes during a Reset may be
// partially lost, which is acceptable for its purpose (discarding warmup
// samples between measurement windows).
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.exIdx.Store(-1)
	h.exMu.Lock()
	h.exDur, h.exRef = 0, ""
	h.exMu.Unlock()
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.buckets[bucketFor(d)].Add(1)
}

// ObserveRef records one sample carrying a reference (a command ID, a
// read key). When the sample lands in the highest bucket seen so far it
// becomes the histogram's exemplar — the concrete thing an operator can
// feed to /tracez / caesar-trace when the tail spikes. Same cost as
// Observe except at a new top bucket.
func (h *Histogram) ObserveRef(d time.Duration, ref string) {
	if ref == "" {
		h.Observe(d)
		return
	}
	h.ObserveRefFunc(d, func() string { return ref })
}

// ObserveRefFunc is ObserveRef for a reference that costs something to
// build: ref is called only when the sample becomes the exemplar, so the
// common sample pays for no string.
func (h *Histogram) ObserveRefFunc(d time.Duration, ref func() string) {
	h.Observe(d)
	idx := int32(bucketFor(d))
	for {
		cur := h.exIdx.Load()
		if idx < cur {
			return
		}
		if h.exIdx.CompareAndSwap(cur, idx) {
			break
		}
	}
	s := ref()
	h.exMu.Lock()
	h.exDur, h.exRef = d, s
	h.exMu.Unlock()
}

// Exemplar returns the reference and duration of the last observation
// that landed in the histogram's highest exemplar-carrying bucket; ok is
// false when no referenced observation was recorded.
func (h *Histogram) Exemplar() (d time.Duration, ref string, ok bool) {
	if h.exIdx.Load() < 0 {
		return 0, "", false
	}
	h.exMu.Lock()
	d, ref = h.exDur, h.exRef
	h.exMu.Unlock()
	return d, ref, ref != ""
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Buckets calls fn for every nonempty bucket, ascending, with the
// bucket's upper bound and its (non-cumulative) sample count. The
// observability exporter renders these as cumulative Prometheus
// histogram buckets.
func (h *Histogram) Buckets(fn func(upper time.Duration, count int64)) {
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			fn(bucketUpper(i), n)
		}
	}
}

// Mean returns the mean sample, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets. The
// estimate is the upper bound of the bucket containing the quantile, so it
// errs high by at most the 9% bucket width.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketUpper(i)
		}
	}
	return h.Max()
}

// Counter is an atomic event counter. A counter may be linked to a
// parent (Recorder.Group), in which case every recording is forwarded,
// so a per-group counter and its node-level aggregate stay in step at
// the cost of one extra atomic add.
type Counter struct {
	v    atomic.Int64
	link *Counter
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	c.v.Add(n)
	if l := c.link; l != nil {
		l.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// DurationSum accumulates total time spent in some activity together with
// the number of contributions, for mean-time reporting. Like Counter it
// may be linked to a parent aggregate (Recorder.Group).
type DurationSum struct {
	total atomic.Int64
	n     atomic.Int64
	link  *DurationSum
}

// Add records one contribution.
func (s *DurationSum) Add(d time.Duration) {
	if d < 0 {
		return
	}
	s.total.Add(int64(d))
	s.n.Add(1)
	if l := s.link; l != nil {
		l.total.Add(int64(d))
		l.n.Add(1)
	}
}

// Total returns the accumulated time.
func (s *DurationSum) Total() time.Duration { return time.Duration(s.total.Load()) }

// Count returns the number of contributions.
func (s *DurationSum) Count() int64 { return s.n.Load() }

// Mean returns Total/Count, or 0 when empty.
func (s *DurationSum) Mean() time.Duration {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.total.Load() / n)
}

// Reset zeroes the sum.
func (s *DurationSum) Reset() {
	s.total.Store(0)
	s.n.Store(0)
}
