// Package loopapply exercises applier dispatch: the handler reaches the
// chain only through fakeloop's applier interfaces, so what blocks behind
// them is found by rooting the walk at their implementations. blockingLog
// is a log layer that does not defer — append, then park the caller on a
// per-record channel until the syncer answers — which no handler names,
// so a walk that stops at interface calls never sees it.
package loopapply

import (
	"sync"

	"fakeloop"
)

type engine struct {
	*fakeloop.Runtime
	chain fakeloop.Applier
	sync  fakeloop.TimestampedApplier
}

// New roots the step; it names no implementation.
func New(e *engine) {
	e.Runtime = fakeloop.NewRuntime(e.step, func() {})
}

func (e *engine) step(ev any) {
	e.sync.ApplyAt(1, 1)
	e.chain.ApplyDeferred(2, 2, fakeloop.DoneFunc(func([]byte) {}))
	e.chain.ApplyDeferred(3, 3, &postingCompletion{e: e})
}

type blockingLog struct {
	mu      sync.Mutex
	waiters []chan error
	kick    chan struct{}
}

// blockingApplier implements TimestampedApplier over blockingLog.
type blockingApplier struct{ l *blockingLog }

func (a *blockingApplier) ApplyAt(cmd int, ts uint64) []byte {
	v, _ := a.l.logCommand(cmd, func() []byte { return nil })
	return v
}

func (l *blockingLog) logCommand(cmd int, apply func() []byte) ([]byte, error) {
	if err := l.append(cmd); err != nil {
		return nil, err
	}
	return apply(), nil
}

func (l *blockingLog) append(cmd int) error {
	l.mu.Lock()
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, ch)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return <-ch // want `channel receive blocks the event loop`
}

type pipelinedLog struct {
	mu      sync.Mutex
	pending []fakeloop.Completion
	kick    chan struct{}
}

// pipelinedApplier implements the chain: ApplyDeferred hands the log the
// record and returns, so nothing on it can park the loop.
type pipelinedApplier struct{ l *pipelinedLog }

func (a *pipelinedApplier) ApplyDeferred(cmd int, ts uint64, done fakeloop.Completion) {
	a.l.mu.Lock()
	a.l.pending = append(a.l.pending, done)
	a.l.mu.Unlock()
	select {
	case a.l.kick <- struct{}{}:
	default:
	}
}

// blockingCompletion reports a deferred apply back to its loop with a
// blocking Post. The chain's pass path completes on the loop itself, so on
// a full inbox that Post deadlocks the loop against itself; no handler
// names Complete, but it implements Completion, so its walk is rooted.
type blockingCompletion struct{ e *engine }

func (c *blockingCompletion) Complete(val []byte) {
	c.e.Post(val) // want `blocking Post from the event loop back into itself`
}

// postingCompletion is the sanctioned shape: TryPost, and a goroutine that
// may block only when the inbox is full.
type postingCompletion struct{ e *engine }

func (c *postingCompletion) Complete(val []byte) {
	if !c.e.TryPost(val) {
		go c.e.Post(val)
	}
}

// lookalike has the method names but not the signatures: it implements
// none of the applier interfaces, so nothing roots a walk here.
type lookalike struct{ ch chan int }

func (k lookalike) ApplyAt(name string) int { return <-k.ch }
