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
	saved, savedSteps, savedAppliers := loopblock.LoopTypes, loopblock.StepFuncs, loopblock.ApplierTypes
	loopblock.LoopTypes = []string{"fakeloop.Loop", "fakeloop.Runtime"}
	loopblock.StepFuncs = []string{"fakeloop.NewRuntime"}
	loopblock.ApplierTypes = []string{"fakeloop.Applier", "fakeloop.TimestampedApplier", "fakeloop.Completion"}
	t.Cleanup(func() {
		loopblock.LoopTypes, loopblock.StepFuncs, loopblock.ApplierTypes = saved, savedSteps, savedAppliers
	})
}

func TestHandlerReachability(t *testing.T) {
	withFakeLoop(t)
	analysistest.Run(t, "testdata", loopblock.Analyzer, "loopdata")
}

func TestCrossPackageBlocksFacts(t *testing.T) {
	withFakeLoop(t)
	analysistest.Run(t, "testdata", loopblock.Analyzer, "loopuser")
}

// TestApplierDispatch: a blocking receive behind an applier interface, and
// a blocking Post in a completion, are flagged in the implementation
// although no handler names it.
func TestApplierDispatch(t *testing.T) {
	withFakeLoop(t)
	analysistest.Run(t, "testdata", loopblock.Analyzer, "loopapply")
}
