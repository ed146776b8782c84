package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/metrics"
)

// parseExposition is a small validating parser for the Prometheus text
// exposition format: it checks line shapes, that every series belongs to
// a family declared by a TYPE line (modulo the _bucket/_sum/_count
// suffixes of histograms and summaries), and returns the parsed samples.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				types[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil && val != "+Inf" {
			t.Fatalf("line %d: bad value %q in %q", ln+1, val, line)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name {
				if k := types[trimmed]; k == "histogram" || k == "summary" {
					base = trimmed
				}
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: series %q has no TYPE declaration", ln+1, name)
		}
		f, _ := strconv.ParseFloat(val, 64)
		samples[series] = f
	}
	return samples
}

func scrape(t *testing.T, r *Registry) (string, map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), parseExposition(t, buf.String())
}

// TestPrometheusTextFormat registers one metric of every kind, scrapes,
// and validates both the exposition format and the sample values.
func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	var c metrics.Counter
	c.Add(3)
	r.Counter("test_ops_total", "Operations.", Labels{"group": "0"}, &c)
	r.CounterFunc("test_fn_total", "Sampled counter.", nil, func() int64 { return 7 })
	r.Gauge("test_depth", "Queue depth.", nil, func() float64 { return 2.5 })
	var d metrics.DurationSum
	d.Add(1500 * time.Millisecond)
	d.Add(500 * time.Millisecond)
	r.Summary("test_wait_seconds", "Wait time.", nil, &d)
	h := metrics.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	r.Histogram("test_latency_seconds", "Latency.", Labels{"node": "1"}, h)

	text, samples := scrape(t, r)
	if got := samples[`test_ops_total{group="0"}`]; got != 3 {
		t.Errorf("labeled counter = %v, want 3\n%s", got, text)
	}
	if got := samples["test_fn_total"]; got != 7 {
		t.Errorf("counter func = %v, want 7", got)
	}
	if got := samples["test_depth"]; got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	if got := samples["test_wait_seconds_sum"]; got != 2 {
		t.Errorf("summary sum = %v, want 2", got)
	}
	if got := samples["test_wait_seconds_count"]; got != 2 {
		t.Errorf("summary count = %v, want 2", got)
	}
	if got := samples[`test_latency_seconds_count{node="1"}`]; got != 100 {
		t.Errorf("histogram count = %v, want 100", got)
	}
	if got := samples[`test_latency_seconds_bucket{node="1",le="+Inf"}`]; got != 100 {
		t.Errorf("histogram +Inf bucket = %v, want 100\n%s", got, text)
	}

	// Histogram buckets must be cumulative and non-decreasing, ending at
	// the +Inf count.
	var last float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "test_latency_seconds_bucket") {
			continue
		}
		v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if v < last {
			t.Fatalf("bucket counts not cumulative: %v after %v in %q", v, last, line)
		}
		last = v
	}
	if last != 100 {
		t.Errorf("final cumulative bucket = %v, want 100", last)
	}
}

// TestRegistryReRegistrationReplaces checks registration is idempotent
// per (name, labels): re-registering swaps the series source in place —
// what a live resize needs when it rebuilds a group's recorder — without
// duplicating the series.
func TestRegistryReRegistrationReplaces(t *testing.T) {
	r := NewRegistry()
	var a, b metrics.Counter
	a.Add(1)
	b.Add(42)
	r.Counter("test_total", "T.", Labels{"group": "0"}, &a)
	r.Counter("test_total", "T.", Labels{"group": "0"}, &b)
	text, samples := scrape(t, r)
	if got := samples[`test_total{group="0"}`]; got != 42 {
		t.Errorf("re-registered series = %v, want 42", got)
	}
	if n := strings.Count(text, "test_total{"); n != 1 {
		t.Errorf("%d series for one (name, labels), want 1:\n%s", n, text)
	}
	if n := strings.Count(text, "# TYPE test_total"); n != 1 {
		t.Errorf("%d TYPE lines, want 1:\n%s", n, text)
	}
}

// TestNilRegistry checks every method is a safe no-op on nil, so wiring
// code needs no guards.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	var c metrics.Counter
	r.Counter("x_total", "X.", nil, &c)
	r.Gauge("x", "X.", nil, func() float64 { return 1 })
	r.Histogram("x_seconds", "X.", nil, metrics.NewHistogram())
	r.Summary("x_sum_seconds", "X.", nil, &metrics.DurationSum{})
	r.CounterFunc("y_total", "Y.", nil, func() int64 { return 1 })
	r.RegisterRecorder(nil, metrics.NewRecorder())
	r.RegisterNodeRecorder(metrics.NewRecorder())
	r.SetReady(func() bool { return false })
	if !r.Ready() {
		t.Error("nil registry must report ready")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Error(err)
	}
	if err := r.WriteJSON(io.Discard); err != nil {
		t.Error(err)
	}
}

// TestRegistryConcurrent hammers registration, recording and scraping
// from many goroutines; run under -race it proves the locking story.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	rec := metrics.NewRecorder()
	r.RegisterNodeRecorder(rec)
	r.RegisterRecorder(nil, rec)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(3)
		g := g
		go func() { // registration (including re-registration)
			defer wg.Done()
			for i := 0; i < 200; i++ {
				child := rec.Group()
				r.RegisterRecorder(Labels{"group": strconv.Itoa(g)}, child)
			}
		}()
		go func() { // recording
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				rec.FastDecisions.Inc()
				rec.WaitCondition.Add(time.Microsecond)
				rec.ObserveLatency(time.Duration(i) * time.Microsecond)
			}
		}()
		go func() { // scraping
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				if err := r.WriteJSON(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	_, samples := scrape(t, r)
	if got := samples["caesar_fast_decisions_total"]; got != 8000 {
		// The node total aggregates every goroutine's increments.
		t.Errorf("fast decisions = %v, want 8000", got)
	}
}

// TestHandlerEndpoints drives the HTTP surface end to end: metrics
// content type, health, readiness flipping, JSON status and pprof.
func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	var c metrics.Counter
	c.Add(9)
	r.Counter("test_total", "T.", nil, &c)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "test_total 9") {
		t.Errorf("/metrics missing sample:\n%s", body)
	}
	parseExposition(t, body)

	if code, body, _ := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	ready := false
	r.SetReady(func() bool { return ready })
	if code, _, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", code)
	}
	ready = true
	if code, _, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after ready = %d, want 200", code)
	}

	code, body, ctype = get("/statusz")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/statusz = %d %q", code, ctype)
	}
	var fams []map[string]any
	if err := json.Unmarshal([]byte(body), &fams); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if len(fams) != 1 || fams[0]["name"] != "test_total" {
		t.Errorf("/statusz families = %v", fams)
	}

	if code, body, _ := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

// TestExpositionDeterministicOrder is the golden-ordering test: no matter
// what order series are registered (or re-registered) in, /metrics and
// /statusz render families sorted by name and series sorted by label set,
// so scrapes from two nodes — or the same node across a resize — are
// line-diffable.
func TestExpositionDeterministicOrder(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		var cs [4]metrics.Counter
		regs := []func(){
			func() { r.Counter("test_z_total", "Z.", nil, &cs[0]) },
			func() { r.Counter("test_a_total", "A.", Labels{"group": "1"}, &cs[1]) },
			func() { r.Counter("test_a_total", "A.", Labels{"group": "0"}, &cs[2]) },
			func() { r.Counter("test_m_total", "M.", Labels{"group": "2", "kind": "x"}, &cs[3]) },
		}
		for _, i := range order {
			regs[i]()
		}
		text, _ := scrape(t, r)
		return text
	}
	want := build([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := build(order); got != want {
			t.Fatalf("exposition depends on registration order %v:\ngot:\n%swant:\n%s", order, got, want)
		}
	}

	// Families must come out name-sorted and the a-family's series
	// label-sorted.
	var names []string
	for _, line := range strings.Split(want, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			names = append(names, strings.Fields(line)[2])
		}
	}
	if len(names) != 3 || names[0] != "test_a_total" || names[1] != "test_m_total" || names[2] != "test_z_total" {
		t.Errorf("families not name-sorted: %v", names)
	}
	if g0 := strings.Index(want, `test_a_total{group="0"}`); g0 < 0 || g0 > strings.Index(want, `test_a_total{group="1"}`) {
		t.Errorf("series not label-sorted:\n%s", want)
	}
}

// TestStatuszHistogramExemplar checks a histogram's top-bucket exemplar
// survives into the /statusz JSON, naming the worst observation's
// reference and duration.
func TestStatuszHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := metrics.NewHistogram()
	h.ObserveRef(2*time.Millisecond, "p0.4")
	h.ObserveRef(90*time.Millisecond, "p1.7") // top bucket → exemplar
	h.ObserveRef(5*time.Millisecond, "p2.9")
	r.Histogram("test_latency_seconds", "L.", nil, h)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string `json:"name"`
		Series []struct {
			Exemplar        string  `json:"exemplar"`
			ExemplarSeconds float64 `json:"exemplar_seconds"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, buf.String())
	}
	if len(fams) != 1 || len(fams[0].Series) != 1 {
		t.Fatalf("unexpected statusz shape: %s", buf.String())
	}
	s := fams[0].Series[0]
	if s.Exemplar != "p1.7" {
		t.Errorf("exemplar = %q, want p1.7", s.Exemplar)
	}
	if s.ExemplarSeconds < 0.089 || s.ExemplarSeconds > 0.091 {
		t.Errorf("exemplar seconds = %v, want ~0.09", s.ExemplarSeconds)
	}
}

// TestRecorderFamilies checks the canonical family names the rest of the
// system (dashboards, the CI smoke test) depend on.
func TestRecorderFamilies(t *testing.T) {
	r := NewRegistry()
	rec := metrics.NewRecorder()
	r.RegisterNodeRecorder(rec)
	r.RegisterRecorder(Labels{"group": "0"}, rec.Group())
	text, _ := scrape(t, r)
	for _, fam := range []string{
		"caesar_proposals_total",
		"caesar_fast_decisions_total",
		"caesar_slow_decisions_total",
		"caesar_retries_total",
		"caesar_nacks_total",
		"caesar_recoveries_total",
		"caesar_read_fence_parks_total",
		"caesar_wait_condition_seconds",
		"caesar_purge_fence_keys",
		"caesar_latency_seconds",
		"caesar_read_latency_seconds",
		"caesar_read_retries_total",
		"caesar_xshard_commits_total",
		"caesar_xshard_aborts_total",
		"caesar_wal_fsyncs_total",
		"caesar_wal_fsync_seconds",
		"caesar_wal_snapshots_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("family %s not registered:\n%s", fam, text)
		}
	}
}

func TestNodeURLsSkipEmptyEntries(t *testing.T) {
	for _, c := range []struct {
		list string
		want []string
	}{
		{"", nil},
		{",", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1,", []string{"http://a:1"}},
		{",http://a:1", []string{"http://a:1"}},
		{" http://a:1 ,, http://b:2 ", []string{"http://a:1", "http://b:2"}},
	} {
		if got := NodeURLs(c.list); !slices.Equal(got, c.want) {
			t.Errorf("NodeURLs(%q) = %q, want %q", c.list, got, c.want)
		}
	}
}
