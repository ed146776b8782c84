//go:build !race

package xshard

import "testing"

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
