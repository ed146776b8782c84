//go:build !race

package shard

import "testing"

// TestSubEndpointSendAllocationBudget: a shard endpoint wraps each payload
// in a slot of an envelope chunk, so a Send allocates nothing on average.
// (The race detector changes allocation counts, hence the build tag.)
func TestSubEndpointSendAllocationBudget(t *testing.T) {
	const runs = 1000
	rec := &recordingEP{sent: make([]any, 0, 2*(runs+1))}
	ep := NewMux(rec, 1).Attach(0, 0)
	msg := new(int)
	if avg := testing.AllocsPerRun(runs, func() {
		ep.Send(1, msg)
		ep.Broadcast(msg)
	}); avg != 0 {
		t.Errorf("Send and Broadcast allocate %.2f per call pair, want 0", avg)
	}
}
