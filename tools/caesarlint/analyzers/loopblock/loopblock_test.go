package loopblock_test

import (
	"testing"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis/analysistest"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/loopblock"
)

// withFakeLoop retargets the analyzer at the golden stand-in loop type
// for the duration of one test.
func withFakeLoop(t *testing.T) {
	t.Helper()
	saved, savedAppliers := loopblock.LoopTypes, loopblock.ApplierTypes
	loopblock.LoopTypes = []string{"fakeloop.Loop"}
	loopblock.ApplierTypes = []string{"fakeloop.Applier", "fakeloop.TimestampedApplier", "fakeloop.DeferringApplier"}
	t.Cleanup(func() { loopblock.LoopTypes, loopblock.ApplierTypes = saved, savedAppliers })
}

func TestHandlerReachability(t *testing.T) {
	withFakeLoop(t)
	analysistest.Run(t, "testdata", loopblock.Analyzer, "loopdata")
}

func TestCrossPackageBlocksFacts(t *testing.T) {
	withFakeLoop(t)
	analysistest.Run(t, "testdata", loopblock.Analyzer, "loopuser")
}

// TestApplierDispatch: a blocking receive behind an applier interface is
// flagged in the implementation although no handler names it.
func TestApplierDispatch(t *testing.T) {
	withFakeLoop(t)
	analysistest.Run(t, "testdata", loopblock.Analyzer, "loopapply")
}
