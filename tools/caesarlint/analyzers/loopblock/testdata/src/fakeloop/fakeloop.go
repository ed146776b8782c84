// Package fakeloop is a stand-in for internal/protocol's event loop so
// the loopblock golden tests can run outside the repo module; the test
// points loopblock.LoopTypes at it.
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

// Applier, TimestampedApplier and DeferringApplier stand in for
// internal/protocol's applier interfaces: what a loop handler delivers
// decided commands through. The test points loopblock.ApplierTypes at
// them.
type Applier interface {
	Apply(cmd int) []byte
}

// TimestampedApplier is the per-group chain.
type TimestampedApplier interface {
	Applier
	ApplyAt(cmd int, ts uint64) []byte
}

// DeferringApplier may complete a command after it returns.
type DeferringApplier interface {
	Applier
	ApplyDeferred(cmd int, ts uint64, done func([]byte))
}
