//go:build !race

package protocol

import (
	"testing"
	"time"
)

// Posting an inbound message must not allocate: every message of every
// command on every replica goes through here, and its payload is already
// a pointer. (The race detector changes allocation counts, hence the
// build tag.)
func TestPostMessageDoesNotAllocate(t *testing.T) {
	const runs = 200
	l := NewLoop(runs + 8) // nothing drains it; it only has to hold the posts
	msg := &struct{ n int }{1}
	if got := testing.AllocsPerRun(runs, func() { l.PostMessage(2, msg) }); got != 0 {
		t.Fatalf("PostMessage allocates %.1f per message, want 0", got)
	}
}

// Nor may the other half of the hop: the runtime taking a posted message
// off the inbox, reading the clock and stepping the engine with it — nor
// the engine's reply to itself, which Step queues and steps in turn.
func TestStepMessageDoesNotAllocate(t *testing.T) {
	steps := 0
	var rt *Runtime
	rt = NewRuntime(&fakeEP{}, nil, 0, func(_ time.Time, ev Event) {
		steps++
		if ev.From != rt.self {
			rt.Send(rt.self, ev.Payload)
		}
	}, func() {})
	msg := &struct{ n int }{1}
	got := testing.AllocsPerRun(200, func() {
		rt.loop.PostMessage(2, msg)
		rt.handle(<-rt.loop.inbox)
	})
	if got != 0 || steps != 2*201 {
		t.Fatalf("dequeue + step + self reply allocates %.1f per message over %d steps, want 0 over %d", got, steps, 2*201)
	}
}
