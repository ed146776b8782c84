// Package fakeloop is a stand-in for internal/protocol's event loop and
// engine runtime so the loopblock golden tests can run outside the repo
// module; the test points loopblock.LoopTypes and StepFuncs at it.
package fakeloop

// Loop is a single-goroutine mailbox: one Run consumer, many posters.
type Loop struct {
	inbox chan any
	stop  chan struct{}
}

// New returns a loop with a bounded inbox.
func New() *Loop {
	return &Loop{inbox: make(chan any, 8), stop: make(chan struct{})}
}

// Run consumes the inbox until Stop; handle runs on Run's goroutine.
func (l *Loop) Run(handle func(ev any)) {
	for {
		select {
		case ev := <-l.inbox:
			handle(ev)
		case <-l.stop:
			return
		}
	}
}

// Post enqueues ev, blocking while the inbox is full.
func (l *Loop) Post(ev any) {
	select {
	case l.inbox <- ev:
	case <-l.stop:
	}
}

// PostMessage enqueues a transport message, blocking like Post.
func (l *Loop) PostMessage(from int32, payload any) {
	l.Post(payload)
}

// TryPost enqueues ev only if the inbox has room.
func (l *Loop) TryPost(ev any) bool {
	select {
	case l.inbox <- ev:
		return true
	default:
		return false
	}
}

// Stopped exposes the stop signal for select composition.
func (l *Loop) Stopped() <-chan struct{} {
	return l.stop
}

// Stop shuts the loop down.
func (l *Loop) Stop() {
	close(l.stop)
}

// Runtime stands in for protocol.Runtime: an engine embeds one and hands it
// the function it steps for every event.
type Runtime struct {
	loop    *Loop
	step    func(ev any)
	drained func()
}

// NewRuntime builds a runtime: step runs on the loop goroutine, drained on
// Stop's, after the loop has exited.
func NewRuntime(step func(ev any), drained func()) *Runtime {
	return &Runtime{loop: New(), step: step, drained: drained}
}

// Start launches the loop; the engine's step is called through a field, so
// nothing here names it.
func (rt *Runtime) Start() {
	go rt.loop.Run(func(ev any) { rt.step(ev) })
}

// Post enqueues ev, blocking while the inbox is full.
func (rt *Runtime) Post(ev any) { rt.loop.Post(ev) }

// TryPost enqueues ev only if the inbox has room.
func (rt *Runtime) TryPost(ev any) bool { return rt.loop.TryPost(ev) }

// Stop shuts the loop down and runs the drained hook.
func (rt *Runtime) Stop() {
	rt.loop.Stop()
	rt.drained()
}

// Applier, TimestampedApplier and Completion stand in for
// internal/protocol's applier interfaces: what a loop handler delivers
// decided commands through, and what the chain reports a result through.
// The test points loopblock.ApplierTypes at them.
type Applier interface {
	ApplyDeferred(cmd int, ts uint64, done Completion)
}

// Completion receives one deferred apply's result, exactly once, from any
// goroutine — the loop's own on the chain's pass path.
type Completion interface {
	Complete(val []byte)
}

// DoneFunc is the Completion of a caller that needs a closure.
type DoneFunc func([]byte)

// Complete implements Completion.
func (f DoneFunc) Complete(val []byte) { f(val) }

// TimestampedApplier is a synchronous layer.
type TimestampedApplier interface {
	ApplyAt(cmd int, ts uint64) []byte
}
