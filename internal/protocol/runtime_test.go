package protocol

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/leakcheck"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// fakeEP is node 0 of three: an endpoint that records what the runtime
// does to it.
type fakeEP struct {
	mu         sync.Mutex
	handler    transport.Handler
	closed     int
	sent       []sentMsg
	broadcasts int
}

type sentMsg struct {
	to  timestamp.NodeID
	msg any
}

func (e *fakeEP) Self() timestamp.NodeID    { return 0 }
func (e *fakeEP) Peers() []timestamp.NodeID { return []timestamp.NodeID{0, 1, 2} }
func (e *fakeEP) Send(to timestamp.NodeID, msg any) {
	e.mu.Lock()
	e.sent = append(e.sent, sentMsg{to, msg})
	e.mu.Unlock()
}
func (e *fakeEP) Broadcast(any)                  { e.mu.Lock(); e.broadcasts++; e.mu.Unlock() }
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

func TestRuntimeStepsEventsInPostOrder(t *testing.T) {
	e := newFakeEngine(&fakeEP{}, nil, 0)
	e.Start()
	for i := 0; i < 100; i++ {
		if !e.Post(i) {
			t.Fatal("post rejected on a running runtime")
		}
	}
	e.Stop()
	if len(e.steps) != 100 {
		t.Fatalf("stepped %d events, want 100", len(e.steps))
	}
	for i, ev := range e.steps {
		if ev.Payload != any(i) {
			t.Fatalf("order violated at %d: %v", i, ev.Payload)
		}
	}
}

// TestRuntimeStopStepsEverythingAccepted: events still in the inbox when
// Stop is called are stepped before Stop returns, and before drained.
func TestRuntimeStopStepsEverythingAccepted(t *testing.T) {
	var stepped atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{})
	var atDrain int64
	rt := NewRuntime(&fakeEP{}, nil, 0, func(_ time.Time, ev Event) {
		if ev.Payload == "block" {
			close(started)
			<-block // hold the loop so the rest stays in the inbox
			return
		}
		stepped.Add(1)
	}, func() { atDrain = stepped.Load() })
	rt.Start()
	rt.Post("block")
	<-started
	for i := 0; i < 10; i++ {
		rt.Post(i)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	rt.Stop() // must wait for the drain
	if n := stepped.Load(); n != 10 || atDrain != 10 {
		t.Fatalf("Stop stepped %d of 10 queued events, %d of them before drained", n, atDrain)
	}
}

func TestRuntimePostAfterStop(t *testing.T) {
	e := newFakeEngine(&fakeEP{}, nil, 0)
	e.Start()
	e.Stop()
	if e.Post("late") || e.TryPost("late") {
		t.Fatal("a stopped runtime accepted a post")
	}
	e.PostMessage(1, "late")
	if len(e.steps) != 0 {
		t.Fatalf("a stopped runtime stepped %v", e.steps)
	}
}

func TestRuntimeStopIdempotent(t *testing.T) {
	ep := &fakeEP{}
	e := newFakeEngine(ep, nil, time.Millisecond)
	e.Start()
	e.Stop()
	e.Stop() // must not panic, deadlock or drain twice
	if e.drained != 1 || ep.closed != 1 {
		t.Fatalf("two Stops: %d drains, %d closes; want 1 each", e.drained, ep.closed)
	}
}

func TestRuntimePostMessageCarriesSender(t *testing.T) {
	e := newFakeEngine(&fakeEP{}, nil, 0)
	e.Start()
	msg := &struct{ n int }{7}
	e.PostMessage(3, msg)
	e.Post("local")
	e.Stop()
	if len(e.steps) != 2 {
		t.Fatalf("stepped %d events, want 2", len(e.steps))
	}
	if ev := e.steps[0]; !ev.Remote || ev.From != 3 || ev.Payload != any(msg) {
		t.Fatalf("message stepped as %+v", ev)
	}
	if ev := e.steps[1]; ev.Remote || ev.Payload != "local" {
		t.Fatalf("local event stepped as %+v", ev)
	}
}

// TestRuntimeRunsOneGoroutine: the loop steps the ticks itself, so a
// started runtime costs one goroutine, and a stopped one none.
func TestRuntimeRunsOneGoroutine(t *testing.T) {
	if err := leakcheck.Check(5 * time.Second); err != nil {
		t.Fatalf("goroutines left over before the test: %v", err)
	}
	before := runtime.NumGoroutine()
	ticks := make(chan struct{}, 1)
	rt := NewRuntime(&fakeEP{}, nil, time.Millisecond, func(_ time.Time, ev Event) {
		if _, ok := ev.Payload.(Tick); ok {
			select {
			case ticks <- struct{}{}:
			default:
			}
		}
	}, func() {})
	rt.Start()
	for i := 0; i < 3; i++ {
		select {
		case <-ticks:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d Ticks stepped in 5s at a 1ms interval, want 3", i)
		}
	}
	if n := runtime.NumGoroutine() - before; n != 1 {
		t.Errorf("a started runtime runs %d goroutines, want 1", n)
	}
	rt.Stop()
	if err := leakcheck.Check(5 * time.Second); err != nil {
		t.Fatalf("a stopped runtime left goroutines: %v", err)
	}
}

// echoEngine answers what its script says to each event it steps and
// logs every event as "<from>:<payload>" ("local:" when not a message).
type echoEngine struct {
	*Runtime
	script map[any]func()
	log    []string
}

func newEchoEngine(ep transport.Endpoint) *echoEngine {
	e := &echoEngine{script: map[any]func(){}}
	e.Runtime = NewRuntime(ep, nil, 0, func(_ time.Time, ev Event) {
		from := "local"
		if ev.Remote {
			from = fmt.Sprint(ev.From)
		}
		e.log = append(e.log, fmt.Sprintf("%s:%v", from, ev.Payload))
		if f := e.script[ev.Payload]; f != nil {
			f()
		}
	}, func() {})
	return e
}

// TestRuntimeLoopbackStepsSelfMessagesInOneStep: what an event sends to
// self — by Send and as Broadcast's self copy, and what a self message
// sends to self in turn — is stepped before that event's Step returns,
// in the order it was sent, as a message from self; the endpoint carries
// only the copies for the other nodes, as sends.
func TestRuntimeLoopbackStepsSelfMessagesInOneStep(t *testing.T) {
	ep := &fakeEP{}
	e := newEchoEngine(ep)
	e.script["go"] = func() {
		e.Send(0, "a")
		e.Broadcast("b")
		e.Send(1, "x")
		e.Send(0, "c")
	}
	e.script["a"] = func() { e.Send(0, "a2"); e.Send(2, "y") }
	e.script["a2"] = func() { e.Broadcast("z") }
	e.Step(time.Now(), Event{Payload: "go"})
	want := []string{"local:go", "p0:a", "p0:b", "p0:c", "p0:a2", "p0:z"}
	if !slices.Equal(e.log, want) {
		t.Fatalf("one Step stepped %v, want %v", e.log, want)
	}
	wantSent := []sentMsg{{1, "b"}, {2, "b"}, {1, "x"}, {2, "y"}, {1, "z"}, {2, "z"}}
	if !slices.Equal(ep.sent, wantSent) || ep.broadcasts != 0 {
		t.Fatalf("endpoint saw sends %v and %d broadcasts, want %v and none", ep.sent, ep.broadcasts, wantSent)
	}
	e.Step(time.Now(), Event{Payload: "quiet"})
	if n := len(e.log); n != len(want)+1 {
		t.Fatalf("a second Step stepped %v: the loopback queue was not emptied", e.log[len(want):])
	}
}

// TestRuntimeLoopbackOnTheLoop: on a started runtime a message from a
// peer and the self message it sets off are one turn of the loop — an
// Inspect posted behind the message runs after both — and what an
// Inspect sends itself is stepped before the next event.
func TestRuntimeLoopbackOnTheLoop(t *testing.T) {
	ep := &fakeEP{}
	e := newEchoEngine(ep)
	e.script["ping"] = func() { e.Broadcast("pong") }
	e.Start()
	defer e.Stop()
	ep.handler(2, "ping")
	seen := make(chan []string, 1)
	e.Inspect(func() { seen <- slices.Clone(e.log); e.Send(0, "inspected") })
	if got, want := <-seen, []string{"p2:ping", "p0:pong"}; !slices.Equal(got, want) {
		t.Fatalf("stepped %v, want %v", got, want)
	}
	e.Post("next")
	e.Inspect(func() { seen <- slices.Clone(e.log) })
	if got, want := <-seen, []string{"p2:ping", "p0:pong", "p0:inspected", "local:next"}; !slices.Equal(got, want) {
		t.Fatalf("stepped %v, want %v", got, want)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if want := []sentMsg{{1, "pong"}, {2, "pong"}}; !slices.Equal(ep.sent, want) || ep.broadcasts != 0 {
		t.Fatalf("endpoint saw sends %v and %d broadcasts, want %v and none", ep.sent, ep.broadcasts, want)
	}
}

// TestRuntimeLoopbackFlushesDrainedEvents: an event Stop's drain steps
// still has its self messages stepped before the drained hook runs.
func TestRuntimeLoopbackFlushesDrainedEvents(t *testing.T) {
	ep := &fakeEP{}
	e := newEchoEngine(ep)
	e.script["queued"] = func() { e.Send(0, "self") }
	e.Post("queued") // never started: Stop's drain is what steps it
	e.Stop()
	if want := []string{"local:queued", "p0:self"}; !slices.Equal(e.log, want) {
		t.Fatalf("Stop drained %v, want %v", e.log, want)
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
