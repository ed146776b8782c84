package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic bound to its position and analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// RunAll applies each analyzer to each package, sharing one fact store,
// then runs each analyzer's Finish hook, and returns the findings sorted
// by position. Packages must arrive in
// dependency order (Load guarantees it) so facts exported by callee
// packages are visible when their callers are analyzed. On test-variant
// packages only diagnostics located in _test.go files are kept, so a
// finding in a shared source file is reported exactly once.
func RunAll(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	facts := NewFactStore()
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pkg, a := pkg, a // Report may run after the loop moves on (a Finish hook's deferred report)
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts,
			}
			pass.Report = func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if pkg.TestVariant && !strings.HasSuffix(pos.Filename, "_test.go") {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Facts: facts}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{Analyzer: a.Name, Pos: fset.Position(d.Pos), Message: d.Message})
		}
		if err := a.Finish(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return findings, nil
}
