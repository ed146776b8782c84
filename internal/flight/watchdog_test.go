package flight

import (
	"strings"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// heldProbe simulates the oldest-held-tx probe: a single item wedged
// since a fixed instant.
func heldProbe(name string, since *time.Time, cmd command.ID) Probe {
	return Probe{
		Name: name,
		Sample: func(now time.Time) (Sample, bool) {
			if since == nil || since.IsZero() {
				return Sample{}, false
			}
			return Sample{Detail: "tx x7", Age: now.Sub(*since), Cmd: cmd}, true
		},
	}
}

func TestWatchdogTripsOnSeededStall(t *testing.T) {
	now, advance := fakeClock(time.Unix(1000, 0))
	rec := New(1, 64)
	rec.SetNow(now)
	ring := trace.NewRing(64)
	wedged := command.ID{Node: 2, Seq: 9}
	ring.Append(trace.Event{Node: 2, Kind: trace.KindPropose, Cmd: wedged,
		Time: timestamp.Timestamp{Seq: 5, Node: 2}})
	ring.Append(trace.Event{Node: 2, Kind: trace.KindTxHold, Cmd: wedged,
		Time: timestamp.Timestamp{Seq: 5, Node: 2}})

	var fired []*Diagnosis
	w := NewWatchdog(Config{
		Self:      1,
		Now:       now,
		Threshold: 10 * time.Second,
		Recorder:  rec,
		Trace:     ring,
		OnStall:   func(d *Diagnosis) { fired = append(fired, d) },
	})
	held := now()
	w.AddProbe(heldProbe("held-tx", &held, wedged))
	w.AddSection("pending detail", func() string { return "x7 waiting on g1" })

	// Healthy while young.
	if d := w.Scan(); d != nil {
		t.Fatalf("scan before threshold tripped: %v", d.Stalls)
	}
	if len(fired) != 0 || w.Stalled() {
		t.Fatal("watchdog stalled before threshold")
	}

	// One scan after crossing the threshold must trip.
	advance(11 * time.Second)
	d := w.Scan()
	if d == nil {
		t.Fatal("scan after threshold did not trip")
	}
	if len(fired) != 1 {
		t.Fatalf("OnStall fired %d times, want 1", len(fired))
	}
	if !w.Stalled() || w.Trips() != 1 {
		t.Fatalf("Stalled=%v Trips=%d, want true/1", w.Stalled(), w.Trips())
	}
	if len(d.Stalls) != 1 || d.Stalls[0].Probe != "held-tx" || d.Stalls[0].Cmd != wedged {
		t.Fatalf("stalls = %+v, want one held-tx naming %v", d.Stalls, wedged)
	}
	if d.Stalls[0].Age != 11*time.Second {
		t.Fatalf("stall age = %v, want 11s on the injected clock", d.Stalls[0].Age)
	}

	// The bundle names the wedged command and carries its traced history,
	// the registered section and the flight tail.
	body := d.Render()
	for _, want := range []string{wedged.String(), "tx-hold", "pending detail",
		"x7 waiting on g1", "flight recorder"} {
		if !strings.Contains(body, want) {
			t.Fatalf("diagnosis missing %q:\n%s", want, body)
		}
	}

	// The trip itself is journaled.
	journal := Format(rec.Dump())
	if !strings.Contains(journal, "stall") || !strings.Contains(journal, wedged.String()) {
		t.Fatalf("flight journal missing stall event:\n%s", journal)
	}

	// While the stall persists OnStall does not re-fire.
	advance(time.Second)
	if w.Scan() == nil {
		t.Fatal("persisting stall not reported")
	}
	if len(fired) != 1 || w.Trips() != 1 {
		t.Fatalf("OnStall re-fired on persisting stall (fired=%d trips=%d)", len(fired), w.Trips())
	}

	// Clearing the stall journals the clear and keeps Last for post-mortem.
	held = time.Time{}
	if w.Scan() != nil {
		t.Fatal("cleared stall still reported")
	}
	if w.Stalled() {
		t.Fatal("Stalled after clear")
	}
	if !strings.Contains(Format(rec.Dump()), "stall-clear") {
		t.Fatal("clear not journaled")
	}
	if w.Last() == nil {
		t.Fatal("Last dropped after clear; wanted the trip kept for post-mortem")
	}
}

func TestWatchdogQuietOnHealthyLoad(t *testing.T) {
	now, advance := fakeClock(time.Unix(2000, 0))
	var fired int
	w := NewWatchdog(Config{
		Self:      1,
		Now:       now,
		Threshold: 10 * time.Second,
		OnStall:   func(*Diagnosis) { fired++ },
	})
	// A probe whose items always complete young: ages bounce around well
	// under the threshold, as on a healthy loaded node.
	age := time.Second
	w.AddProbe(Probe{Name: "unacked", Sample: func(now time.Time) (Sample, bool) {
		return Sample{Detail: "c1.5", Age: age}, true
	}})
	for i := 0; i < 50; i++ {
		advance(time.Second)
		age = time.Duration(1+i%5) * time.Second
		if d := w.Scan(); d != nil {
			t.Fatalf("healthy scan %d tripped: %v", i, d.Stalls)
		}
	}
	if fired != 0 || w.Trips() != 0 || w.Stalled() {
		t.Fatalf("healthy load tripped watchdog (fired=%d trips=%d)", fired, w.Trips())
	}
	if w.Scans() != 50 {
		t.Fatalf("Scans = %d, want 50", w.Scans())
	}
}

func TestWatchdogPerProbeThreshold(t *testing.T) {
	now, advance := fakeClock(time.Unix(3000, 0))
	w := NewWatchdog(Config{Self: 1, Now: now, Threshold: 10 * time.Second})
	start := now()
	// Tight per-probe threshold overrides the default.
	w.AddProbe(Probe{Name: "read-fence", Threshold: 2 * time.Second,
		Sample: func(now time.Time) (Sample, bool) {
			return Sample{Detail: "keys [a]", Age: now.Sub(start)}, true
		}})
	advance(3 * time.Second)
	d := w.Scan()
	if d == nil || d.Stalls[0].Threshold != 2*time.Second {
		t.Fatalf("per-probe threshold not applied: %+v", d)
	}
}

func TestWatchdogDiagnoseOnDemand(t *testing.T) {
	now, _ := fakeClock(time.Unix(4000, 0))
	rec := New(3, 16)
	rec.SetNow(now)
	rec.Eventf(KindNode, "started")
	w := NewWatchdog(Config{Self: 3, Now: now, Recorder: rec})
	w.AddSection("coordinator", func() string { return "epoch 4 steady" })

	d := w.Diagnose()
	if d == nil {
		t.Fatal("Diagnose returned nil")
	}
	body := d.Render()
	for _, want := range []string{"healthy", "coordinator", "epoch 4 steady", "started"} {
		if !strings.Contains(body, want) {
			t.Fatalf("on-demand bundle missing %q:\n%s", want, body)
		}
	}
	// On-demand diagnosis of a healthy node is not a trip.
	if w.Trips() != 0 || w.Stalled() {
		t.Fatal("Diagnose counted as a trip")
	}
}

func TestNilDiagnosisRenders(t *testing.T) {
	var d *Diagnosis // what Last returns before the first trip
	if !strings.Contains(d.Render(), "no diagnosis") {
		t.Fatal("nil diagnosis Render")
	}
}
