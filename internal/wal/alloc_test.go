//go:build !race

package wal

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// nopApplier is a chain end that costs nothing, so the gate below counts
// the log's allocations alone.
type nopApplier struct{}

func (nopApplier) ApplyAt(command.Command, timestamp.Timestamp) []byte { return nil }

// TestApplyDeferredAllocs gates the append path: one record through
// ApplyDeferred, its sync and its completion costs at most one allocation
// in steady state (the frame goes into the reused batch buffer, the entry
// into the reused queue; the budget is the delivered set's amortized
// growth). The race detector allocates on its own, hence the build tag.
func TestApplyDeferredAllocs(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	app := l.GroupApplier(0, nopApplier{})
	acked := make(chan struct{}, 1)
	done := protocol.DoneFunc(func(protocol.Result) { acked <- struct{}{} })
	cmd := command.Put("p0-0000", make([]byte, 16))
	seq := uint64(0)
	one := func() {
		seq++
		cmd.ID = command.ID{Node: 1, Seq: seq}
		app.ApplyDeferred(cmd, timestamp.Timestamp{Seq: seq, Node: 1}, done)
		<-acked
	}
	for i := 0; i < 64; i++ {
		one() // both batch buffers and both queue arrays exist after this
	}
	avg := testing.AllocsPerRun(500, one)
	t.Logf("%.2f allocs per record", avg)
	if avg > 1 {
		t.Errorf("ApplyDeferred of a 16-byte put: %.2f allocs per record, want <= 1", avg)
	}
}
