package stack_test

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/leakcheck"
)

// TestMain fails the package if any layer of a built node outlives the
// tests: the stack joins every subsystem on Stop — event loops, tickers,
// the WAL syncer and the maintenance loop — so a survivor here is a
// missed join somewhere in the stack.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
