// Package maprange forbids ranging over a map in the consensus core.
// internal/caesar promises that a replica's transcript — the messages it
// sends, the commands it applies and the trace events it records, in
// order — is a function of the events it handled: that is what makes a
// failing run a seed that replays. Go randomises map iteration, so one
// `for … range someMap` whose order reaches a Send, a Broadcast, an apply
// or a trace event breaks the promise silently; the package therefore
// keeps what it walks in slices and lists with a defined order (creation
// order, node order), and a map is for lookup only.
//
// The check is by the operand's type, so a map hidden behind a named type
// or a struct field is caught the same. Test files are exempt.
//
// A loop whose order provably cannot escape — it takes a minimum, or
// inserts into a sorted set — is waived with a trailing or preceding
// `//caesarlint:allow maprange -- <why the order cannot reach a Send, a
// Broadcast, an apply or a trace event>`.
package maprange

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis"
)

// PathSuffixes lists the import-path suffixes the check applies to. Tests
// point golden packages at it by their path.
var PathSuffixes = []string{"internal/caesar"}

// Analyzer is the maprange check.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "forbids ranging over a map in internal/caesar, where iteration order would reach the replica's transcript",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !pathApplies(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypesInfo.TypeOf(loop.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(loop.Pos(),
						"range over a map (%s) in the consensus core: iteration order is random and must not reach a message, an apply or a trace event; walk a slice or list with a defined order, or annotate //caesarlint:allow maprange -- <why the order cannot escape>",
						types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			}
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
