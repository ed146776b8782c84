package protocol

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// fakeEP is an endpoint that records what the runtime does to it.
type fakeEP struct {
	mu      sync.Mutex
	handler transport.Handler
	closed  int
}

func (e *fakeEP) Self() timestamp.NodeID         { return 0 }
func (e *fakeEP) Peers() []timestamp.NodeID      { return []timestamp.NodeID{0} }
func (e *fakeEP) Send(timestamp.NodeID, any)     {}
func (e *fakeEP) Broadcast(any)                  {}
func (e *fakeEP) SetHandler(h transport.Handler) { e.mu.Lock(); e.handler = h; e.mu.Unlock() }
func (e *fakeEP) Close() error                   { e.mu.Lock(); e.closed++; e.mu.Unlock(); return nil }

// fakeEngine is the smallest engine: it parks every submission until Stop.
type fakeEngine struct {
	*Runtime
	steps   []Event
	nows    []time.Time
	parked  []DoneFunc
	drained int
}

func newFakeEngine(ep transport.Endpoint, now func() time.Time, tick time.Duration) *fakeEngine {
	e := &fakeEngine{}
	e.Runtime = NewRuntime(ep, now, tick, e.step, e.fail)
	return e
}

func (e *fakeEngine) step(now time.Time, ev Event) {
	e.steps = append(e.steps, ev)
	e.nows = append(e.nows, now)
	if s, ok := ev.Payload.(Submission); ok {
		e.parked = append(e.parked, s.Done)
	}
}

func (e *fakeEngine) fail() {
	e.drained++
	for _, done := range e.parked {
		done(Result{Err: ErrStopped})
	}
	e.parked = nil
}

func TestRuntimeStepsEveryEventAtTheInjectedInstant(t *testing.T) {
	at := time.Unix(7_000_000, 0)
	ep := &fakeEP{}
	e := newFakeEngine(ep, func() time.Time { return at }, 0)
	e.Start()
	msg := &struct{ n int }{1}
	ep.handler(3, msg)
	e.Post("internal")
	var failed atomic.Int32
	e.Submit(command.Put("k", nil), func(res Result) {
		if res.Err == ErrStopped {
			failed.Add(1)
		}
	})
	seen := make(chan int, 1)
	if !e.Inspect(func() { seen <- len(e.steps) }) {
		t.Fatal("Inspect refused on a running runtime")
	}
	if n := <-seen; n != 3 {
		t.Fatalf("Inspect ran after %d steps, want 3 (and is not itself a step)", n)
	}
	e.Stop()
	if len(e.steps) != 3 {
		t.Fatalf("stepped %d events, want 3", len(e.steps))
	}
	if ev := e.steps[0]; !ev.Remote || ev.From != 3 || ev.Payload != any(msg) {
		t.Fatalf("message stepped as %+v", ev)
	}
	if ev := e.steps[1]; ev.Remote || ev.Payload != "internal" {
		t.Fatalf("posted event stepped as %+v", ev)
	}
	if _, ok := e.steps[2].Payload.(Submission); !ok {
		t.Fatalf("submission stepped as %+v", e.steps[2])
	}
	for i, now := range e.nows {
		if !now.Equal(at) {
			t.Fatalf("step %d ran at %v, want the injected %v", i, now, at)
		}
	}
	if failed.Load() != 1 || e.drained != 1 || ep.closed != 1 {
		t.Fatalf("Stop: %d failed, %d drains, %d closes; want 1 each", failed.Load(), e.drained, ep.closed)
	}
	if e.Inspect(func() {}) || e.Post("late") {
		t.Fatal("a stopped runtime accepted an event")
	}
}

func TestRuntimeTicks(t *testing.T) {
	ticked := make(chan struct{}, 1)
	rt := NewRuntime(&fakeEP{}, nil, time.Millisecond, func(_ time.Time, ev Event) {
		if _, ok := ev.Payload.(Tick); ok {
			select {
			case ticked <- struct{}{}:
			default:
			}
		}
	}, func() {})
	rt.Start()
	defer rt.Stop()
	select {
	case <-ticked:
	case <-time.After(5 * time.Second):
		t.Fatal("no Tick stepped in 5s at a 1ms interval")
	}
}

func TestRuntimeStopBeforeStartIsFinal(t *testing.T) {
	ep := &fakeEP{}
	e := newFakeEngine(ep, nil, time.Millisecond)
	var failed atomic.Int32
	e.Submit(command.Put("k", nil), func(Result) { failed.Add(1) })
	e.Stop()
	if failed.Load() != 1 || len(e.steps) != 1 {
		t.Fatalf("queued submission: failed %d times over %d steps, want 1 and 1", failed.Load(), len(e.steps))
	}
	e.Start()
	e.Stop()
	if ep.handler != nil || ep.closed != 1 || e.drained != 1 {
		t.Fatalf("Start after Stop: handler set %v, %d closes, %d drains", ep.handler != nil, ep.closed, e.drained)
	}
	e.Submit(command.Put("k", nil), func(res Result) {
		if res.Err == ErrStopped {
			failed.Add(1)
		}
	})
	if failed.Load() != 2 {
		t.Fatal("Submit on a stopped runtime did not fail inline")
	}
}

// TestRuntimeLifecycleRaces runs Start, Stop and Stop concurrently: under
// -race this is the check that the state word is guarded, and either Stop
// returns only once the engine is down — whichever of them took it down.
func TestRuntimeLifecycleRaces(t *testing.T) {
	for round := 0; round < 50; round++ {
		e := newFakeEngine(&fakeEP{}, nil, time.Millisecond)
		var failed atomic.Int32
		e.Submit(command.Put("k", nil), func(Result) { failed.Add(1) })
		stop := func() {
			e.Stop()
			if n := failed.Load(); n != 1 {
				t.Errorf("round %d: a Stop returned with the submission failed %d times, want 1", round, n)
			}
		}
		var wg sync.WaitGroup
		for _, f := range []func(){e.Start, stop, stop} {
			f := f
			wg.Add(1)
			go func() { defer wg.Done(); f() }()
		}
		wg.Wait()
	}
}

func TestPending(t *testing.T) {
	met := metrics.NewRecorder()
	p := NewPending(2, met)
	t0 := time.Unix(100, 0)
	var got []Result
	done := func(res Result) { got = append(got, res) }

	a := p.Register(t0, Submission{Cmd: command.Put("a", nil), Done: done})
	b := p.Register(t0, Submission{Cmd: command.Put("b", nil)}) // no callback
	c := p.Register(t0, Submission{Cmd: command.Put("c", nil), Done: done})
	if a.ID != (command.ID{Node: 2, Seq: 1}) || b.ID.Seq != 2 || c.ID.Seq != 3 {
		t.Fatalf("minted %v %v %v", a.ID, b.ID, c.ID)
	}

	p.Complete(t0.Add(time.Second), command.ID{Node: 1, Seq: 1}, nil) // another node's
	p.Complete(t0.Add(time.Second), a.ID, []byte("v"))
	p.Complete(t0.Add(2*time.Second), a.ID, []byte("again")) // duplicate delivery
	p.Complete(t0.Add(3*time.Second), b.ID, nil)
	if len(got) != 1 || string(got[0].Value) != "v" || got[0].Err != nil {
		t.Fatalf("completions: %+v", got)
	}
	if n, sum := met.Latency.Count(), met.Latency.Sum(); n != 2 || sum != 4*time.Second {
		t.Fatalf("latency: %d samples totalling %v, want 2 and 4s", n, sum)
	}

	p.FailAll()
	p.FailAll()
	if len(got) != 2 || got[1].Err != ErrStopped {
		t.Fatalf("after FailAll: %+v", got)
	}
}
