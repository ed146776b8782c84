package protocol

import (
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// Submission is the payload of a client submission event. Submit posts a
// *Submission, a slot of the runtime's chunk (internal/chunk): an engine
// reads it in the step that handles it and keeps nothing of the slot
// itself, and nothing writes to it once it is posted.
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

// halt is the last event of a runtime's inbox: Stop posts it behind
// every accepted event, and the loop closes it and returns.
type halt chan struct{}

// Event is one inbox entry. Post and TryPost enqueue a local event — a
// submission, an engine-internal request — as Payload; PostMessage
// enqueues a transport message with Remote set and its sender in From.
// The sender travels beside the payload instead of both being boxed into
// one interface value: a message payload is already a pointer, so posting
// it allocates nothing.
type Event struct {
	From    timestamp.NodeID
	Remote  bool
	Payload any
}

// InboxSize is the inbox capacity every engine runs with. It is a
// queueing buffer, not a synchronisation channel: it absorbs bursts from
// the network-delivery goroutines, and posters block (backpressure) when
// it fills.
const InboxSize = 8192

// Runtime is everything around an engine's state machine, once for all
// five: the transport handler, the inbox and the one goroutine that
// consumes it, the ticker, the clock, loopback and the lifecycle. An
// engine embeds one, so Start, Stop, Submit, Post, Step, Send and
// Broadcast are the Runtime's, and supplies two functions: step, which is
// handed every event together with the instant it is handled at — the
// engine reads no clock of its own, so whoever calls Step owns its time —
// and drained, which fails what is still in flight once the loop has
// stopped.
//
// Transport messages, client submissions, engine events and ticks are all
// stepped on the loop goroutine, one at a time, so engine state needs no
// locking. A message the engine addresses to itself never reaches the
// transport: Send and Broadcast queue the self copy, and Step hands it to
// step as a remote event from self before returning, so the replica's own
// vote, reply or decision costs no goroutine hand-off.
//
// The lifecycle is new → running → stopped and only moves forward: a
// Stop before Start is final (the later Start does nothing), and Start
// and Stop are safe to call concurrently.
type Runtime struct {
	ep      transport.Endpoint
	self    timestamp.NodeID
	peers   []timestamp.NodeID
	now     func() time.Time
	tick    time.Duration
	step    func(now time.Time, ev Event)
	drained func()
	// loopback is the FIFO of self-addressed messages Step has yet to
	// step. Loop state: only Send and Broadcast, called from step, append.
	loopback []any
	inbox    chan Event

	// fence orders posts before Stop: a post holds it shared while it
	// enqueues, Stop takes it exclusively to set closed, so every post
	// that returned true has its event in the inbox ahead of Stop's halt —
	// an event is never accepted and then silently discarded.
	fence  sync.RWMutex
	closed bool

	// mu guards state. Stop holds it until the engine is down, so a
	// concurrent Stop returns only then, and a Start waiting on it finds
	// the runtime stopped.
	mu    sync.Mutex
	state uint8

	// subs is where Submit takes its submissions from; clients submit
	// from their own goroutines, so subsMu guards it.
	subsMu sync.Mutex
	subs   chunk.Of[Submission]
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
		inbox:   make(chan Event, InboxSize),
		now:     now,
		tick:    tick,
		step:    step,
		drained: drained,
	}
}

// Start attaches the transport handler and launches the event loop. It
// does nothing on a runtime already started or stopped.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.state != stateNew {
		return
	}
	rt.state = stateRunning
	rt.ep.SetHandler(rt.PostMessage)
	go rt.run(rt.tick)
}

// run is the loop goroutine: it steps the inbox's events in order, and a
// Tick every interval (none for 0), until it reaches the halt.
func (rt *Runtime) run(interval time.Duration) {
	var ticks <-chan time.Time
	if interval > 0 {
		// The cadence is real time by design — it only decides how often
		// the engine gets to compare deadlines; every instant it compares
		// is the step's now, read from the injected clock. Fake-clock
		// tests keep it silent (a long interval) and step Tick themselves.
		//caesarlint:allow wallclock -- liveness cadence only; all compared instants come from the runtime's clock
		t := time.NewTicker(interval)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case ev := <-rt.inbox:
			if !rt.handle(ev) {
				return
			}
		case <-ticks:
			rt.Step(rt.now(), Event{Payload: Tick{}})
		}
	}
}

// handle steps one inbox event at the clock's instant; it reports false
// for the halt, which ends the loop.
func (rt *Runtime) handle(ev Event) bool {
	switch p := ev.Payload.(type) {
	case halt:
		close(p)
		return false
	case inspection:
		p.fn()
		rt.stepLoopback(rt.now())
	default:
		rt.Step(rt.now(), ev)
	}
	return true
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

// Stop closes the endpoint and the inbox to new events, steps every event
// accepted before it — then the loop exits — and has the engine fail what
// is in flight with ErrStopped. It returns once all of that is done, also
// when another Stop is the one doing it.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch rt.state {
	case stateStopped:
		return
	case stateNew:
		// Never started, so nothing consumes the inbox: run the loop for
		// the drain alone, and what Submit queued is stepped and then
		// failed like any other in-flight command.
		go rt.run(0)
	}
	rt.state = stateStopped
	_ = rt.ep.Close()
	rt.fence.Lock()
	rt.closed = true
	rt.fence.Unlock()
	h := make(halt)
	rt.inbox <- Event{Payload: h}
	<-h
	rt.drained()
}

// Submit proposes cmd on this replica; done (may be nil) fires after
// local execution, or with ErrStopped. The engine is stepped a
// *Submission taken from the runtime's chunk, so a submission costs no
// allocation of its own. Safe for concurrent use.
func (rt *Runtime) Submit(cmd command.Command, done DoneFunc) {
	rt.subsMu.Lock()
	s := rt.subs.Next()
	rt.subsMu.Unlock()
	s.Cmd, s.Done = cmd, done
	if !rt.Post(s) && done != nil {
		done(Result{Err: ErrStopped})
	}
}

// Post enqueues an engine-internal event for step, blocking while the
// inbox is full. It reports false once Stop has begun; true guarantees
// the event is stepped.
func (rt *Runtime) Post(ev any) bool { return rt.post(Event{Payload: ev}) }

// PostMessage enqueues a transport message from the given sender, with
// Post's blocking; after Stop it drops the message. It is the transport
// handler.
func (rt *Runtime) PostMessage(from timestamp.NodeID, payload any) {
	rt.post(Event{From: from, Remote: true, Payload: payload})
}

func (rt *Runtime) post(ev Event) bool {
	rt.fence.RLock()
	defer rt.fence.RUnlock()
	if rt.closed {
		return false
	}
	// The loop drains a full inbox until it reaches the halt, which Stop
	// cannot post while this post holds the fence.
	rt.inbox <- ev
	return true
}

// TryPost enqueues a local event without ever blocking: it reports false
// once Stop has begun or while the inbox is full. For best-effort events
// posted from contexts that may BE the loop goroutine (an applier
// completion running synchronously inside step), where a blocking Post on
// a full inbox would deadlock the loop against itself.
func (rt *Runtime) TryPost(ev any) bool {
	rt.fence.RLock()
	defer rt.fence.RUnlock()
	if rt.closed {
		return false
	}
	select {
	case rt.inbox <- Event{Payload: ev}:
		return true
	default:
		return false
	}
}

// Inspect runs fn on the loop goroutine between two steps, where reading
// the engine's state is race-free, and then steps what fn sent to self,
// as Step would. It reports false on a stopped runtime. For tests.
func (rt *Runtime) Inspect(fn func()) bool { return rt.Post(inspection{fn}) }

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
// submission as arrived at now, and returns a copy of the command carrying
// the ID: s itself is a posted slot and is not written.
func (p *Pending) Register(now time.Time, s *Submission) command.Command {
	p.seq++
	cmd := s.Cmd
	cmd.ID = command.ID{Node: p.self, Seq: p.seq}
	p.subs[cmd.ID] = pendingSub{done: s.Done, at: now}
	return cmd
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
