package maprange_test

import (
	"testing"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis/analysistest"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/maprange"
)

func TestConsensusCoreFindings(t *testing.T) {
	analysistest.Run(t, "testdata", maprange.Analyzer, "internal/caesar")
}

func TestOffPathIsClean(t *testing.T) {
	analysistest.Run(t, "testdata", maprange.Analyzer, "offpath")
}
