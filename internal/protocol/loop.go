package protocol

import (
	"sync"

	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Event is one mailbox entry. Post and TryPost enqueue a local event — a
// submission, a tick, an engine-internal request — as Payload;
// PostMessage enqueues a transport message with Remote set and its sender
// in From. The sender travels beside the payload instead of both being
// boxed into one interface value: a message payload is already a pointer,
// so posting it allocates nothing.
type Event struct {
	From    timestamp.NodeID
	Remote  bool
	Payload any
}

// Loop is the single-goroutine mailbox every replica runs on: transport
// messages, client submissions and timer ticks are all posted as events and
// consumed sequentially, so protocol state needs no locking.
type Loop struct {
	inbox   chan Event
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once
	// mu fences Post against Stop: posts hold it shared while enqueuing,
	// Stop takes it exclusively before closing the loop, so every Post
	// that returned true has its event in the inbox before the final
	// drain runs — an event can never be accepted and then silently
	// discarded. (Without the fence, a post racing Stop could win the
	// enqueue select after the drain already finished, losing its
	// submission callback forever.)
	mu     sync.RWMutex
	closed bool
}

// InboxSize is the inbox capacity every engine runs with.
const InboxSize = 8192

// NewLoop returns a loop with the given inbox capacity. The capacity is a
// queueing buffer, not a synchronisation channel: it absorbs bursts from
// the network-delivery goroutines; senders block (backpressure) when it
// fills.
func NewLoop(capacity int) *Loop {
	return &Loop{
		inbox:   make(chan Event, capacity),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// Post enqueues a local event, blocking if the inbox is full. It reports
// false once the loop has been stopped; true guarantees the event will be
// handled (the stop path drains the inbox).
func (l *Loop) Post(ev any) bool {
	return l.post(Event{Payload: ev})
}

// PostMessage enqueues a transport message from the given sender, with
// Post's blocking and stop semantics. It is the body of every engine's
// transport handler.
func (l *Loop) PostMessage(from timestamp.NodeID, payload any) bool {
	return l.post(Event{From: from, Remote: true, Payload: payload})
}

func (l *Loop) post(ev Event) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return false
	}
	// A full inbox is drained by Run until Stop closes l.stop, and Stop
	// cannot close it while we hold the read lock — so this select
	// cannot deadlock, and an enqueue here is strictly before the final
	// drain.
	select {
	case l.inbox <- ev:
		return true
	case <-l.stop:
		return false
	}
}

// TryPost enqueues a local event without ever blocking: it reports false
// when the loop is stopped or the inbox is full. For best-effort events posted
// from contexts that may BE the loop goroutine (an applier completion
// callback running synchronously inside handle), where a blocking Post on
// a full inbox would deadlock the loop against itself.
func (l *Loop) TryPost(ev any) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return false
	}
	select {
	case l.inbox <- Event{Payload: ev}:
		return true
	default:
		return false
	}
}

// Run consumes events until Stop is called, invoking handle for each.
// It must be called exactly once, typically via `go loop.Run(...)`.
func (l *Loop) Run(handle func(ev Event)) {
	defer close(l.stopped)
	for {
		select {
		case <-l.stop:
			// Drain whatever is already buffered so shutdown
			// callbacks (e.g. failing in-flight submissions) see a
			// consistent final state.
			for {
				select {
				case ev := <-l.inbox:
					handle(ev)
				default:
					return
				}
			}
		case ev := <-l.inbox:
			handle(ev)
		}
	}
}

// Stop terminates the loop and waits for Run to return. Idempotent.
func (l *Loop) Stop() {
	l.once.Do(func() {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		close(l.stop)
	})
	<-l.stopped
}
