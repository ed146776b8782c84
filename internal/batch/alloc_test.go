//go:build !race

package batch

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
)

// TestUnpackAllocs gates what a coordinator pays to open a transaction: a
// two-put batch is the member list and a key and a value per put. The race
// detector allocates on its own, hence the build tag.
func TestUnpackAllocs(t *testing.T) {
	packed := command.Command{Op: command.OpBatch, Payload: goldenBytes(t)}
	if avg := testing.AllocsPerRun(200, func() { Unpack(packed) }); avg > 6 {
		t.Errorf("Unpack of a two-put batch: %.1f allocs, want <= 6", avg)
	}
}
