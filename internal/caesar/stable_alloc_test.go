//go:build !race

package caesar

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
)

// A decision is one allocation whichever replicas voted: a Stable by name
// when all did, a whole one when none did, and both forms in one pair when
// a five-node decision is taken by four votes. (The race detector's
// instrumentation allocates, hence the build tag.)
func TestStableByNameAllocatesOneMessage(t *testing.T) {
	// Self is outside the peer list, so nothing loops back and every
	// Stable lands in the stub.
	ep := &stubEP{self: 5, n: 5}
	r := New(ep, protocol.ApplierFunc(func(command.Command) []byte { return nil }), Config{HeartbeatInterval: -1})
	c := &coordinator{cmd: put(5, 1, "k"), phase: phaseStable}
	for _, voters := range []int32{0, 4, 5} {
		c.votes = quorum.NewTracker(r.fq)
		for v := int32(0); v < voters; v++ {
			c.votes.Add(v)
		}
		if n := testing.AllocsPerRun(100, func() { r.startStable(c); ep.clear() }); n != 1 {
			t.Errorf("%d of 5 voters: startStable allocates %.0f, want 1", voters, n)
		}
	}
}
