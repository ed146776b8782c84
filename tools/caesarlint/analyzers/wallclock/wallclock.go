// Package wallclock forbids direct wall-clock calls on the consensus
// path. Every timeout, deadline and latency stamp in the consensus-path
// packages must flow through the injected clock (caesar.Config.Now,
// xshard.TableConfig.Now, rebalance.Config.Now, wal.Options.Now,
// stack.Config.Now) — for the five engines, through the `now` their Step
// is called with, which protocol.Runtime reads from that clock (the four
// baselines hold no clock at all, so whoever steps them owns their time):
// the restart conformance tests and the fake-clock
// harness drive replicas under simulated time, and a single time.Now
// smuggled onto the path measures (or times out) against a clock nothing
// else advances — the exact bug fixed at internal/caesar/delivery.go,
// where client-ack latency was stamped from the wall clock while the
// timeouts it was compared against ran on the injected one.
//
// Referencing a time function as a value (`cfg.Now = time.Now`, the
// injection default idiom) is deliberately not flagged: defaults are the
// one sanctioned place the wall clock enters, and they are what the
// analyzer pushes call sites toward. Test files are exempt.
//
// Suppress a finding with a trailing or preceding
// `//caesarlint:allow wallclock -- <why real time is correct here>`.
package wallclock

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis"
)

// PathSuffixes lists the import-path suffixes the check applies to — the
// packages whose timers and stamps must run on the injected clock. The
// caesarlint main binds a flag to it; tests point it at golden packages.
var PathSuffixes = []string{
	"internal/caesar",
	"internal/epaxos",
	"internal/m2paxos",
	"internal/mencius",
	"internal/multipaxos",
	"internal/xshard",
	"internal/rebalance",
	"internal/wal",
	"internal/reads",
	"internal/protocol",
	"internal/flight",
	"internal/contend",
	"internal/stack",
	"internal/trace",
}

// forbidden is the set of time-package functions that read or schedule
// against the wall clock.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// Analyzer is the wallclock check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbids direct time.Now/Sleep/After/Timer calls in consensus-path packages where an injectable clock exists",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !pathApplies(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !forbidden[fn.Name()] {
				return true
			}
			// Methods sharing a forbidden name (t.After, t.Sub on a
			// time.Time value) are pure arithmetic, not clock reads.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s called on the consensus path: use the injected clock (Config.Now) so fake-clock tests drive it, or annotate //caesarlint:allow wallclock -- <why>",
				fn.Name())
			return true
		})
	}
	return nil
}

func pathApplies(path string) bool {
	for _, s := range PathSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
