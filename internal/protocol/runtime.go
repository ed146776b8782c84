package protocol

import (
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// Submission is the payload of a client submission event.
type Submission struct {
	Cmd  command.Command
	Done DoneFunc
}

// Tick is the payload of a timer event. It carries nothing: the instant
// is the step's now, like every other event's.
type Tick struct{}

// inspection is the payload Inspect posts: the runtime runs fn itself,
// the engine never sees it.
type inspection struct{ fn func() }

// Runtime is everything around an engine's state machine, once for all
// five: the transport handler, the Loop and its goroutine, the ticker,
// the clock, loopback and the lifecycle. An engine embeds one, so Start,
// Stop, Submit, Step, Send and Broadcast are the Runtime's, and supplies
// two functions: step, which is handed every event together with the
// instant it is handled at — the engine reads no clock of its own, so
// whoever calls Step owns its time — and drained, which fails what is
// still in flight once the loop has stopped.
//
// A message the engine addresses to itself never reaches the transport:
// Send and Broadcast queue the self copy, and Step hands it to step as a
// remote event from self before returning, so the replica's own vote,
// reply or decision costs no goroutine hand-off.
//
// The lifecycle is new → running → stopped and only moves forward: a
// Stop before Start is final (the later Start does nothing), and Start
// and Stop are safe to call concurrently.
type Runtime struct {
	ep      transport.Endpoint
	self    timestamp.NodeID
	peers   []timestamp.NodeID
	loop    *Loop
	now     func() time.Time
	tick    time.Duration
	step    func(now time.Time, ev Event)
	drained func()
	// loopback is the FIFO of self-addressed messages Step has yet to
	// step. Loop state: only Send and Broadcast, called from step, append.
	loopback []any

	mu      sync.Mutex // guards state
	state   uint8
	quit    chan struct{} // closed when Stop begins; ends the ticker
	stopped chan struct{} // closed when Stop has finished
	ticker  sync.WaitGroup
}

const (
	stateNew uint8 = iota
	stateRunning
	stateStopped
)

// NewRuntime builds the runtime of the engine attached to ep. now is the
// clock every step's instant is read from (nil: time.Now); tick is how
// often a Tick event is stepped (0: never). step runs on the loop
// goroutine only; drained runs on Stop's, after the loop has exited.
func NewRuntime(ep transport.Endpoint, now func() time.Time, tick time.Duration, step func(now time.Time, ev Event), drained func()) *Runtime {
	if now == nil {
		now = time.Now
	}
	return &Runtime{
		ep:      ep,
		self:    ep.Self(),
		peers:   ep.Peers(),
		loop:    NewLoop(InboxSize),
		now:     now,
		tick:    tick,
		step:    step,
		drained: drained,
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// Start attaches the transport handler and launches the event loop and
// the ticker. It does nothing on a runtime already started or stopped.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.state != stateNew {
		return
	}
	rt.state = stateRunning
	rt.ep.SetHandler(func(from timestamp.NodeID, payload any) {
		rt.loop.PostMessage(from, payload)
	})
	rt.run()
	if rt.tick > 0 {
		rt.ticker.Add(1)
		go rt.runTicker()
	}
}

// run launches the loop goroutine.
func (rt *Runtime) run() { go rt.loop.Run(rt.handle) }

// handle is the loop's consumer: it reads the clock once per event and
// steps the engine.
func (rt *Runtime) handle(ev Event) {
	if in, ok := ev.Payload.(inspection); ok {
		in.fn()
		rt.stepLoopback(rt.now())
		return
	}
	rt.Step(rt.now(), ev)
}

// Step hands ev to the engine at instant now, then every message the
// engine sent itself meanwhile, oldest first — including those sent while
// an earlier one was stepped — each as a remote event from self at the
// same instant. The loop calls it for every event, and so does a test or
// simulator that owns the schedule: one Step is one event's whole effect
// on this replica.
func (rt *Runtime) Step(now time.Time, ev Event) {
	rt.step(now, ev)
	rt.stepLoopback(now)
}

// stepLoopback steps the queued self messages, and what they queue, in order.
func (rt *Runtime) stepLoopback(now time.Time) {
	for i := 0; i < len(rt.loopback); i++ {
		msg := rt.loopback[i]
		rt.loopback[i] = nil
		rt.step(now, Event{From: rt.self, Remote: true, Payload: msg})
	}
	rt.loopback = rt.loopback[:0]
}

// Send delivers msg to peer to. A message to self is queued for the Step
// in progress instead; the queue has no bound, so the loop never blocks
// on itself. Called from step only.
func (rt *Runtime) Send(to timestamp.NodeID, msg any) {
	if to == rt.self {
		rt.loopback = append(rt.loopback, msg)
		return
	}
	rt.ep.Send(to, msg)
}

// Broadcast delivers msg to every node in the cluster, self included (§V:
// leaders message all of Π), with Send's semantics for each.
func (rt *Runtime) Broadcast(msg any) {
	for _, to := range rt.peers {
		rt.Send(to, msg)
	}
}

// runTicker posts a Tick per interval until Stop.
func (rt *Runtime) runTicker() {
	defer rt.ticker.Done()
	// The cadence is real time by design — it only decides how often the
	// engine gets to compare deadlines; every instant it compares is the
	// step's now, read from the injected clock. Fake-clock tests keep this
	// goroutine silent (a long interval) and step Tick themselves.
	//caesarlint:allow wallclock -- liveness cadence only; all compared instants come from the runtime's clock
	t := time.NewTicker(rt.tick)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C:
			rt.loop.Post(Tick{})
		}
	}
}

// Stop ends the ticker, closes the endpoint, stops the loop — which
// steps what its inbox still holds — and then has the engine fail what is
// in flight with ErrStopped. It returns once all of that is done, also
// when another Stop is the one doing it.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	prev := rt.state
	rt.state = stateStopped
	rt.mu.Unlock()
	switch prev {
	case stateStopped:
		<-rt.stopped
		return
	case stateNew:
		// Never started, so nothing has consumed the inbox: run the loop
		// for the drain alone, and what Submit queued is stepped and then
		// failed like any other in-flight command.
		rt.run()
	}
	close(rt.quit)
	rt.ticker.Wait()
	_ = rt.ep.Close()
	rt.loop.Stop()
	rt.drained()
	close(rt.stopped)
}

// Submit proposes cmd on this replica; done (may be nil) fires after
// local execution, or with ErrStopped.
func (rt *Runtime) Submit(cmd command.Command, done DoneFunc) {
	if !rt.loop.Post(Submission{Cmd: cmd, Done: done}) && done != nil {
		done(Result{Err: ErrStopped})
	}
}

// Post enqueues an engine-internal event for step, with Loop.Post's
// semantics.
func (rt *Runtime) Post(ev any) bool { return rt.loop.Post(ev) }

// TryPost is Post for callers that may be the loop goroutine: it never
// blocks (Loop.TryPost).
func (rt *Runtime) TryPost(ev any) bool { return rt.loop.TryPost(ev) }

// Inspect runs fn on the loop goroutine between two steps, where reading
// the engine's state is race-free, and then steps what fn sent to self,
// as Step would. It reports false on a stopped runtime. For tests.
func (rt *Runtime) Inspect(fn func()) bool { return rt.loop.Post(inspection{fn}) }

// Now reads the runtime's clock, for the stamps an engine takes off the
// loop goroutine (a deferred apply completing); on it, the step's now is
// the instant.
func (rt *Runtime) Now() time.Time { return rt.now() }

// Pending is the client table of an engine that keeps none of its own:
// the submissions this replica leads and has not completed, with the
// instant each arrived at. Event-loop state, like the rest of the engine.
type Pending struct {
	self timestamp.NodeID
	met  *metrics.Recorder
	seq  uint64
	subs map[command.ID]pendingSub
}

type pendingSub struct {
	done DoneFunc
	at   time.Time
}

// NewPending returns the empty table of node self; completions observe
// their submit→execute latency into met.
func NewPending(self timestamp.NodeID, met *metrics.Recorder) *Pending {
	return &Pending{self: self, met: met, subs: make(map[command.ID]pendingSub)}
}

// Register mints the next command ID of this node for s, records the
// submission as arrived at now, and returns the command carrying the ID.
func (p *Pending) Register(now time.Time, s Submission) command.Command {
	p.seq++
	s.Cmd.ID = command.ID{Node: p.self, Seq: p.seq}
	p.subs[s.Cmd.ID] = pendingSub{done: s.Done, at: now}
	return s.Cmd
}

// Complete reports the execution of command id at now: if this replica
// registered it and has not completed it yet, its latency is observed and
// its callback fires with value.
func (p *Pending) Complete(now time.Time, id command.ID, value []byte) {
	if id.Node != p.self {
		return
	}
	s, ok := p.subs[id]
	if !ok {
		return
	}
	delete(p.subs, id)
	p.met.ObserveLatency(now.Sub(s.at))
	if s.done != nil {
		s.done(Result{Value: value})
	}
}

// FailAll fails every registered submission with ErrStopped: the drained
// hook of the engines that use the table.
func (p *Pending) FailAll() {
	for id, s := range p.subs {
		delete(p.subs, id)
		if s.done != nil {
			s.done(Result{Err: ErrStopped})
		}
	}
}
