package xshard

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/leakcheck"
)

// TestMain fails the package if commit-table goroutines outlive the
// tests: every queued-callback flush must be joined by Stop.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
