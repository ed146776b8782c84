package flight

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/leakcheck"
)

// TestMain fails the package if a goroutine outlives the tests: the
// recorder and the watchdog run none of their own — the node stack's
// maintenance loop paces Scan.
func TestMain(m *testing.M) { leakcheck.Main(m) }
