package wal

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/leakcheck"
)

// TestMain fails the package if a log outlives the tests: Close joins the
// syncer and the completer, so a survivor is a log some test never
// closed, or a Close that returned before its goroutines did.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
