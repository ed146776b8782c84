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
	rt := NewRuntime(&fakeEP{}, nil, 0, func(time.Time, Event) {}, func() {})
	msg := &struct{ n int }{1}
	// Nothing drains the inbox; it only has to hold the posts.
	if got := testing.AllocsPerRun(runs, func() { rt.PostMessage(2, msg) }); got != 0 {
		t.Fatalf("PostMessage allocates %.1f per message, want 0", got)
	}
	if n := len(rt.inbox); n != runs+1 {
		t.Fatalf("the inbox holds %d messages, want %d", n, runs+1)
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
		rt.PostMessage(2, msg)
		rt.handle(<-rt.inbox)
	})
	if got != 0 || steps != 2*201 {
		t.Fatalf("dequeue + step + self reply allocates %.1f per message over %d steps, want 0 over %d", got, steps, 2*201)
	}
}
