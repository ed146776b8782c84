package wire

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
