package deadknob_test

import (
	"testing"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis/analysistest"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/deadknob"
)

func TestKnobsNeedACaller(t *testing.T) {
	analysistest.Run(t, "testdata", deadknob.Analyzer, "knobuser")
}
