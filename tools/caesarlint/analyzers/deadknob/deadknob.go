// Package deadknob flags configuration fields nothing sets. Every
// exported field of an exported struct whose name ends in Config or
// Options is a knob, and a knob needs a caller: some code outside the
// declaring package — or in that package's own _test.go files — must
// write it, through a keyed composite literal, an assignment (including
// op= and ++/--) or by taking its address (&x.F, as flag.IntVar does).
// Writes in the declaring package's non-test code do not count, so a
// field's own withDefaults cannot keep it alive. A knob with no such
// write is a finding: turn it into a constant, or delete the mode it
// selects.
//
// The check is whole-program, so it reports from the Finish hook, after
// every package of the load has been seen; the vettool shim, which sees
// one compilation unit at a time, reports nothing for it. A knob kept on
// purpose is waived at its declaration with `//caesarlint:allow deadknob
// -- <who sets it, or why it must exist unset>`.
package deadknob

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis"
)

// Analyzer is the deadknob check.
var Analyzer = &analysis.Analyzer{
	Name:   "deadknob",
	Doc:    "flags exported fields of exported *Config and *Options structs that nothing outside the declaring package's non-test code sets",
	Run:    run,
	Finish: finish,
}

// knob is a package fact: one declared knob, keyed by its declaration's
// file position (a test variant re-parses the package, so object
// identity differs between variants while the position does not), with
// a reporter bound to the declaring package's pass and its allow index.
type knob struct {
	key    string
	report func()
}

// write is a package fact: a counted write to the field declared at key.
type write struct{ key string }

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		inTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		if !inTest {
			declare(pass, f)
		}
		note := func(e ast.Expr) {
			var obj types.Object
			switch e := e.(type) {
			case *ast.Ident: // a composite literal's key
				obj = pass.TypesInfo.Uses[e]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[e.Sel]
			}
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || !v.Exported() || v.Pkg() == nil {
				return
			}
			if inTest || v.Pkg().Path() != pass.Pkg.Path() {
				pass.ExportPackageFact(write{key: pass.Fset.Position(v.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						note(kv.Key) // only a struct literal's keys resolve to fields
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							note(sel)
						}
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					note(sel)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					note(sel)
				}
			}
			return true
		})
	}
	return nil
}

// declare exports a knob fact for every exported field of every exported
// *Config or *Options struct declared in f.
func declare(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.TYPE {
			continue
		}
		for _, spec := range gen.Specs {
			ts := spec.(*ast.TypeSpec)
			name := ts.Name.Name
			if !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if !id.IsExported() {
						continue
					}
					id := id
					pass.ExportPackageFact(knob{
						key: pass.Fset.Position(id.Pos()).String(),
						report: func() {
							pass.Reportf(id.Pos(),
								"%s.%s has no caller: nothing outside package %s's non-test code sets it; make it a constant, or delete the mode it selects",
								name, id.Name, pass.Pkg.Name())
						},
					})
				}
			}
		}
	}
}

// finish reports every declared knob no counted write reached, once per
// declaration (the first pass to declare it is the package's own, not a
// test variant's).
func finish(pass *analysis.Pass) error {
	set := make(map[string]bool)
	for _, f := range pass.AllPackageFacts(write{}) {
		set[f.(write).key] = true
	}
	for _, f := range pass.AllPackageFacts(knob{}) {
		k := f.(knob)
		if set[k.key] {
			continue
		}
		set[k.key] = true
		k.report()
	}
	return nil
}
