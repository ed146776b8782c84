//go:build !race

package protocol

import "testing"

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
