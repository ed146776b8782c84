package flight

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// Sample is one probe's report of its oldest wedged item.
type Sample struct {
	// Detail names the wedged item (a command ID, an XID, a key set).
	Detail string
	// Age is how long the item has been wedged, measured on the
	// injected clock.
	Age time.Duration
	// Cmd is the wedged command's consensus ID when the item is
	// command-shaped; the diagnosis bundle pulls its traced history.
	Cmd command.ID
}

// Probe samples one stall signal. Probes must be safe to call from the
// scanning goroutine at any time — in particular they must not post into
// (or wait on) an event loop, since a wedged loop is exactly what they
// exist to detect.
type Probe struct {
	// Name identifies the signal ("held-tx", "read-fence", "unacked").
	Name string
	// Threshold overrides the watchdog's default trip threshold for
	// this probe; zero inherits the default.
	Threshold time.Duration
	// Sample returns the probe's oldest wedged item; ok=false reports a
	// healthy signal. now is the watchdog's injected-clock instant.
	Sample func(now time.Time) (s Sample, ok bool)
}

// Section is one diagnosis-bundle collector, evaluated when a bundle is
// assembled (trip or on-demand), never on healthy scans.
type Section struct {
	Name    string
	Collect func() string
}

// Stall is one tripped probe in a diagnosis.
type Stall struct {
	Probe     string
	Detail    string
	Cmd       command.ID
	Age       time.Duration
	Threshold time.Duration
}

// String implements fmt.Stringer.
func (s Stall) String() string {
	out := fmt.Sprintf("%s: %s wedged %v (threshold %v)", s.Probe, s.Detail, s.Age, s.Threshold)
	if s.Cmd != (command.ID{}) {
		out += fmt.Sprintf(" cmd=%v", s.Cmd)
	}
	return out
}

// Diagnosis is one assembled bundle: the tripped stalls (empty for an
// on-demand bundle of a healthy node) plus every section's rendering.
type Diagnosis struct {
	At       time.Time
	Node     timestamp.NodeID
	Stalls   []Stall
	Sections []RenderedSection
}

// RenderedSection is one collected section of a diagnosis bundle.
type RenderedSection struct {
	Name string
	Body string
}

// Render formats the bundle for operators: the /debugz body and the
// stall log entry.
func (d *Diagnosis) Render() string {
	if d == nil {
		return "no diagnosis\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== diagnosis %v at %s\n", d.Node, d.At.Format("15:04:05.000000"))
	if len(d.Stalls) == 0 {
		b.WriteString("healthy: no probe above threshold\n")
	}
	for _, s := range d.Stalls {
		fmt.Fprintf(&b, "STALL %s\n", s)
	}
	for _, sec := range d.Sections {
		body := strings.TrimRight(sec.Body, "\n")
		if body == "" {
			body = "(empty)"
		}
		fmt.Fprintf(&b, "\n-- %s --\n%s\n", sec.Name, body)
	}
	return b.String()
}

// Config tunes a watchdog.
type Config struct {
	// Self is the node the diagnoses are attributed to.
	Self timestamp.NodeID
	// Now is the clock ages are measured on. Default time.Now; inject a
	// fake and call Scan to drive the watchdog under simulated time.
	Now func() time.Time
	// Threshold is the default trip threshold for probes that do not
	// set their own. Default 10s.
	Threshold time.Duration
	// Recorder, when non-nil, journals trips and clears.
	Recorder *Recorder
	// Trace, when non-nil, supplies wedged commands' histories to the
	// diagnosis bundle.
	Trace *trace.Ring
	// OnStall fires once per healthy→stalled transition with the
	// assembled diagnosis; it runs on the scanning goroutine, so it
	// must not block (hand work off if it needs to).
	OnStall func(*Diagnosis)
}

// historyLimit bounds the flight-recorder tail included in bundles.
const historyLimit = 64

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Threshold <= 0 {
		c.Threshold = 10 * time.Second
	}
	return c
}

// Watchdog scans stall probes and assembles diagnosis bundles when one
// trips. Construct with NewWatchdog and register probes and sections;
// whoever owns the node's clock paces Scan (internal/stack's maintenance
// loop), and Diagnose serves on-demand bundles. It runs no goroutine.
type Watchdog struct {
	cfg Config

	mu       sync.Mutex
	probes   []Probe
	sections []Section
	stalled  bool
	last     *Diagnosis

	scans atomic.Int64
	trips atomic.Int64
}

// NewWatchdog returns a watchdog with no probes; it trips on nothing
// until AddProbe.
func NewWatchdog(cfg Config) *Watchdog {
	return &Watchdog{cfg: cfg.withDefaults()}
}

// AddProbe registers one stall signal.
func (w *Watchdog) AddProbe(p Probe) {
	if p.Sample == nil {
		return
	}
	if p.Threshold <= 0 {
		p.Threshold = w.cfg.Threshold
	}
	w.mu.Lock()
	w.probes = append(w.probes, p)
	w.mu.Unlock()
}

// AddSection registers one diagnosis-bundle collector.
func (w *Watchdog) AddSection(name string, collect func() string) {
	if collect == nil {
		return
	}
	w.mu.Lock()
	w.sections = append(w.sections, Section{Name: name, Collect: collect})
	w.mu.Unlock()
}

// Scans returns the number of scan passes run; Trips the number of
// healthy→stalled transitions. Both are scrape-time gauges in the obs
// registry.
func (w *Watchdog) Scans() int64 {
	return w.scans.Load()
}

// Trips returns the number of healthy→stalled transitions observed.
func (w *Watchdog) Trips() int64 {
	return w.trips.Load()
}

// Stalled reports whether the last scan found a probe above threshold.
func (w *Watchdog) Stalled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalled
}

// Last returns the most recent trip's diagnosis (kept after the stall
// clears, for post-mortems); nil before the first trip.
func (w *Watchdog) Last() *Diagnosis {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// sample runs every probe and returns the tripped stalls, sorted
// oldest-first so the first stall is the likeliest root cause.
func (w *Watchdog) sample(now time.Time) []Stall {
	w.mu.Lock()
	probes := append([]Probe(nil), w.probes...)
	w.mu.Unlock()
	var stalls []Stall
	for _, p := range probes {
		s, ok := p.Sample(now)
		if !ok || s.Age < p.Threshold {
			continue
		}
		stalls = append(stalls, Stall{
			Probe:     p.Name,
			Detail:    s.Detail,
			Cmd:       s.Cmd,
			Age:       s.Age,
			Threshold: p.Threshold,
		})
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i].Age > stalls[j].Age })
	return stalls
}

// bundle assembles a diagnosis: the given stalls, each wedged command's
// traced history, every registered section, the flight-recorder tail
// and, on trips, a goroutine profile.
func (w *Watchdog) bundle(now time.Time, stalls []Stall) *Diagnosis {
	d := &Diagnosis{At: now, Node: w.cfg.Self, Stalls: stalls}
	seen := make(map[command.ID]bool)
	for _, s := range stalls {
		if s.Cmd == (command.ID{}) || seen[s.Cmd] {
			continue
		}
		seen[s.Cmd] = true
		if hist := w.cfg.Trace.CommandHistory(s.Cmd); len(hist) > 0 {
			d.Sections = append(d.Sections, RenderedSection{
				Name: fmt.Sprintf("trace %v", s.Cmd),
				Body: trace.Format(hist),
			})
		}
	}
	w.mu.Lock()
	sections := append([]Section(nil), w.sections...)
	w.mu.Unlock()
	for _, sec := range sections {
		d.Sections = append(d.Sections, RenderedSection{Name: sec.Name, Body: sec.Collect()})
	}
	if w.cfg.Recorder != nil {
		d.Sections = append(d.Sections, RenderedSection{
			Name: "flight recorder",
			Body: Format(w.cfg.Recorder.Tail(historyLimit)),
		})
	}
	if len(stalls) > 0 {
		d.Sections = append(d.Sections, RenderedSection{
			Name: "goroutines",
			Body: goroutineProfile(),
		})
	}
	return d
}

// goroutineProfile captures every goroutine's stack.
func goroutineProfile() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return string(buf[:n])
}

// Scan runs one watchdog pass: sample every probe, and on a
// healthy→stalled transition assemble a diagnosis, journal the trip and
// fire OnStall. While the stall persists the stored diagnosis is
// refreshed but OnStall does not re-fire; the stalled→healthy
// transition is journaled as a clear. Returns the current diagnosis
// when stalled, nil when healthy.
func (w *Watchdog) Scan() *Diagnosis {
	w.scans.Add(1)
	now := w.cfg.Now()
	stalls := w.sample(now)

	w.mu.Lock()
	was := w.stalled
	w.stalled = len(stalls) > 0
	w.mu.Unlock()

	if len(stalls) == 0 {
		if was {
			w.cfg.Recorder.Eventf(KindClear, "all stall probes back under threshold")
		}
		return nil
	}
	d := w.bundle(now, stalls)
	w.mu.Lock()
	w.last = d
	w.mu.Unlock()
	if !was {
		w.trips.Add(1)
		w.cfg.Recorder.Record(KindStall, NoGroup, stalls[0].Cmd,
			"watchdog tripped: %s", stalls[0])
		if w.cfg.OnStall != nil {
			w.cfg.OnStall(d)
		}
	}
	return d
}

// Diagnose assembles an on-demand bundle right now, regardless of
// thresholds: the current probe samples above threshold (possibly
// none), every section, the flight tail. /debugz serves it.
func (w *Watchdog) Diagnose() *Diagnosis {
	now := w.cfg.Now()
	return w.bundle(now, w.sample(now))
}
