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
// or a struct field is caught the same. A call to one of the maps
// package's functions that walk a map and hand its entries to caller code
// — All, Keys and Values, whose iterators a loop or a collector then
// ranges over, DeleteFunc and EqualFunc, which call a function per entry —
// is a range over a map too, and is flagged unless it is the direct
// argument of slices.Sorted or slices.SortedFunc, which put the entries in
// a defined order. Test files are exempt.
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

// walkers are the maps package's functions that hand a map's entries to
// caller code in iteration order; sorters are the slices package's
// functions that take such an iterator and give a defined order back.
var (
	walkers = map[string]bool{"All": true, "Keys": true, "Values": true, "DeleteFunc": true, "EqualFunc": true}
	sorters = map[string]bool{"Sorted": true, "SortedFunc": true}
)

const remedy = "iteration order is random and must not reach a message, an apply or a trace event; walk a slice or list with a defined order, or annotate //caesarlint:allow maprange -- <why the order cannot escape>"

func run(pass *analysis.Pass) error {
	if !pathApplies(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		sorted := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over a map (%s) in the consensus core: %s",
							types.TypeString(t, types.RelativeTo(pass.Pkg)), remedy)
					}
				}
			case *ast.CallExpr:
				if sorters[stdFunc(pass, n, "slices")] && len(n.Args) > 0 {
					sorted[n.Args[0]] = true
				}
				if name := stdFunc(pass, n, "maps"); walkers[name] && !sorted[n] {
					pass.Reportf(n.Pos(), "maps.%s walks a map in the consensus core: %s", name, remedy)
				}
			}
			return true
		})
	}
	return nil
}

// stdFunc returns the name of the function call calls if it is a
// package-level function of the standard library package pkg, and "" if it
// is not.
func stdFunc(pass *analysis.Pass, call *ast.CallExpr, pkg string) string {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok { // an explicit instantiation
		fun = ix.X
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ix.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkg {
		return ""
	}
	return fn.Name()
}

func pathApplies(path string) bool {
	for _, s := range PathSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
