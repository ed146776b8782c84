//go:build !race

package xshard

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
)

// TestPayloadDecodeAllocs gates what a delivery costs on its group's event
// loop: a two-put piece is the Piece, its two lists and a key and a value
// per put; an abort marker is the Abort.
// The race detector allocates on its own, hence the build tag.
func TestPayloadDecodeAllocs(t *testing.T) {
	piece, marker := unhex(t, goldenPiece), unhex(t, goldenAbort)
	if avg := testing.AllocsPerRun(200, func() { DecodePiece(piece) }); avg > 8 {
		t.Errorf("DecodePiece of a two-put piece: %.1f allocs, want <= 8", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { DecodeAbort(marker) }); avg > 1 {
		t.Errorf("DecodeAbort: %.1f allocs, want <= 1", avg)
	}
}

// TestWaitSettledImmediateAllocatesNothing: a read that no held
// transaction blocks — the table is empty, or holds only other keys or
// transactions above the read point — gets a nil channel and costs no
// allocation.
func TestWaitSettledImmediateAllocatesNothing(t *testing.T) {
	tb := newTestTable(&recordingExec{})
	keys := []string{"a"}
	check := func(what string) {
		t.Helper()
		if avg := testing.AllocsPerRun(200, func() {
			if tb.WaitSettled(keys, ts(10, 0)) != nil {
				t.Fatalf("%s: the read parked", what)
			}
		}); avg != 0 {
			t.Errorf("%s: WaitSettled allocates %.1f, want 0", what, avg)
		}
	}
	check("empty table")
	tb.registerPiece(0, &Piece{XID: XID{Node: 1, Seq: 1}, Groups: []int32{0, 1}, Ops: testOps("x", "y")}, ts(5, 0), 0, command.ID{})
	tb.registerPiece(0, &Piece{XID: XID{Node: 1, Seq: 2}, Groups: []int32{0, 1}, Ops: testOps("a", "b")}, ts(50, 0), 0, command.ID{})
	check("held transactions on other keys and above the read point")
}
