package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// snapshot copies the registry's families and their series in canonical
// exposition order: families sorted by name, series within a family by
// rendered label string. Registration order depends on wiring order (and
// on resize-time re-registration), so sorting here is what makes two
// scrapes — or two nodes — byte-comparable: diffing /metrics across
// replicas, golden tests, and caesar-top's column alignment all rely on
// it.
func (r *Registry) snapshot() []famSnap {
	r.mu.RLock()
	out := make([]famSnap, 0, len(r.families))
	vecs := make([]func() []Sample, 0, len(r.families))
	for _, f := range r.families {
		fs := famSnap{family: f, series: make([]*series, len(f.series))}
		copy(fs.series, f.series)
		out = append(out, fs)
		vecs = append(vecs, f.vecFn)
	}
	r.mu.RUnlock()
	// Materialize GaugeVec samplers outside the lock (they may take
	// their subsystem's locks) into ordinary gauge series for this
	// scrape only.
	for i, fn := range vecs {
		if fn == nil {
			continue
		}
		for _, smp := range fn() {
			v := smp.Value
			out[i].series = append(out[i].series,
				&series{labels: renderLabels(smp.Labels), gaugeFn: func() float64 { return v }})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	for _, fs := range out {
		ss := fs.series
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
	}
	return out
}

// famSnap is one family plus a private copy of its series slice, safe to
// sort and read outside the registry lock (series sources are atomic).
type famSnap struct {
	*family
	series []*series
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE lines followed by the
// family's series. Durations are rendered in seconds. Histogram buckets
// are cumulative with le bounds; only buckets that hold samples are
// rendered (Prometheus permits sparse bounds), plus the mandatory +Inf.
// Output order is deterministic: families by name, series by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.snapshot() {
		if len(f.series) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			writeSeries(&b, f.family, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fnum renders a float the way Prometheus clients do.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch f.kind {
	case kindCounter:
		v := int64(0)
		if s.counter != nil {
			v = s.counter.Load()
		} else if s.counterFn != nil {
			v = s.counterFn()
		}
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, v)
	case kindGauge:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, fnum(s.gaugeFn()))
	case kindSummary:
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.labels, fnum(seconds(s.dsum.Total())))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.labels, s.dsum.Count())
	case kindHistogram:
		writeHistogram(b, f.name, s)
	}
}

// writeHistogram renders one histogram series: cumulative buckets, sum,
// count. The le label is appended to the series' other labels.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	open, end := "{", "}"
	if s.labels != "" {
		open = s.labels[:len(s.labels)-1] + ","
	}
	var cum int64
	h.Buckets(func(upper time.Duration, count int64) {
		cum += count
		fmt.Fprintf(b, "%s_bucket%sle=%q%s %d\n", name, open, fnum(seconds(upper)), end, cum)
	})
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"%s %d\n", name, open, end, h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, fnum(seconds(h.Sum())))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, h.Count())
}

// StatusSeries is one series in the /statusz JSON document.
type StatusSeries struct {
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Sum    float64 `json:"sum,omitempty"`
	Count  int64   `json:"count,omitempty"`
	P50    float64 `json:"p50,omitempty"`
	P99    float64 `json:"p99,omitempty"`
	Max    float64 `json:"max,omitempty"`
	// Exemplar names the observation behind the histogram's worst bucket
	// (a command ID for the latency histogram, a key for reads) with its
	// duration in seconds — the handle an operator feeds to /tracez /
	// caesar-trace when the tail spikes.
	Exemplar        string  `json:"exemplar,omitempty"`
	ExemplarSeconds float64 `json:"exemplar_seconds,omitempty"`
}

// StatusFamily is one family in the /statusz JSON document.
type StatusFamily struct {
	Name   string         `json:"name"`
	Type   string         `json:"type"`
	Help   string         `json:"help"`
	Series []StatusSeries `json:"series"`
}

// WriteJSON renders the registry as the /statusz JSON document: the same
// families as /metrics (same deterministic order), with precomputed
// quantiles and the top-bucket exemplar for histograms.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	fams := r.snapshot()
	out := make([]StatusFamily, 0, len(fams))
	for _, f := range fams {
		sf := StatusFamily{Name: f.name, Type: f.kind.String(), Help: f.help}
		for _, s := range f.series {
			var e StatusSeries
			e.Labels = s.labels
			switch f.kind {
			case kindCounter:
				if s.counter != nil {
					e.Value = float64(s.counter.Load())
				} else {
					e.Value = float64(s.counterFn())
				}
			case kindGauge:
				e.Value = s.gaugeFn()
			case kindSummary:
				e.Sum = seconds(s.dsum.Total())
				e.Count = s.dsum.Count()
			case kindHistogram:
				e.Sum = seconds(s.hist.Sum())
				e.Count = s.hist.Count()
				e.P50 = seconds(s.hist.Quantile(0.5))
				e.P99 = seconds(s.hist.Quantile(0.99))
				e.Max = seconds(s.hist.Max())
				if d, ref, ok := s.hist.Exemplar(); ok {
					e.Exemplar = ref
					e.ExemplarSeconds = seconds(d)
				}
			}
			sf.Series = append(sf.Series, e)
		}
		out = append(out, sf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
