package rebalance

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/leakcheck"
)

// TestMain fails the package if coordinator goroutines outlive the
// tests: handoff workers and deferred-delivery reposters must all be
// joined by Stop.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
