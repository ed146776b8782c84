// Package analysis is a self-contained, stdlib-only reimplementation of
// the core of golang.org/x/tools/go/analysis, sized for this repo's lint
// suite. The container building this repo has no module proxy access and
// the root module is deliberately dependency-free, so the framework the
// caesarlint analyzers run on lives here: an Analyzer/Pass pair, an
// in-memory fact store for cross-package results (the standalone runner
// type-checks the whole repo in one process, in dependency order, so
// object identities are shared and facts flow caller-ward for free), and
// the //caesarlint:allow suppression directive shared by every analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"reflect"
	"strings"
	"sync"
)

// Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //caesarlint:allow annotations.
	Name string
	// Doc is the one-paragraph description printed by `caesarlint help`.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
	// Finish, when non-nil, runs once after Run has seen every package
	// of a standalone load, on a pass that carries only the load's fact
	// store and Report: the hook for whole-program checks, which decide
	// only when every package has been seen. The vettool shim never
	// calls it (one compilation unit is not the whole program).
	Finish func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. Analyzers normally go through
	// Reportf, which also applies //caesarlint:allow suppression.
	Report func(Diagnostic)
	// Facts is the cross-package fact store. The standalone runner shares
	// one store across the whole load (packages are processed in
	// dependency order, so a callee's facts exist before its callers are
	// analyzed); the vettool shim gets a fresh store per process, which
	// degrades fact-dependent checks to package-local scope — documented
	// in LINTING.md.
	Facts *FactStore

	allowOnce sync.Once
	allow     map[string]map[int][]allowDirective // filename → line → directives
}

// Reportf reports a diagnostic at pos unless an //caesarlint:allow
// directive for this analyzer covers the position. A matching directive
// without a rationale suppresses the original finding but produces a
// "needs a rationale" finding of its own, so an empty annotation can
// never silence the linter for free.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allowed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// allowDirective is one parsed //caesarlint:allow comment.
type allowDirective struct {
	checks    []string
	rationale string
	line      int // the line the directive text sits on
}

// allowed reports whether pos is covered by an allow directive for
// p.Analyzer.Name, emitting the missing-rationale diagnostic when the
// directive is present but unexplained.
func (p *Pass) allowed(pos token.Pos) bool {
	p.allowOnce.Do(p.buildAllowIndex)
	position := p.Fset.Position(pos)
	byLine := p.allow[position.Filename]
	if byLine == nil {
		return false
	}
	for _, d := range byLine[position.Line] {
		for _, c := range d.checks {
			if c != p.Analyzer.Name && c != "all" {
				continue
			}
			if strings.TrimSpace(d.rationale) == "" {
				p.Report(Diagnostic{
					Pos: pos,
					Message: fmt.Sprintf("//caesarlint:allow %s needs a rationale: write `//caesarlint:allow %s -- <why this site is exempt>`",
						p.Analyzer.Name, p.Analyzer.Name),
				})
			}
			return true
		}
	}
	return false
}

const allowPrefix = "//caesarlint:allow"

// buildAllowIndex scans the raw source of every file in the pass and maps
// each //caesarlint:allow directive to the line(s) it covers: its own
// line (trailing-comment form) and the first following non-blank,
// non-comment line (preceding-comment form). Raw text is used instead of
// the AST comment map so a directive works identically above a statement,
// a field, a function, or trailing any of them.
func (p *Pass) buildAllowIndex() {
	p.allow = make(map[string]map[int][]allowDirective)
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		byLine := make(map[int][]allowDirective)
		lines := strings.Split(string(src), "\n")
		for i, raw := range lines {
			idx := strings.Index(raw, allowPrefix)
			if idx < 0 {
				continue
			}
			d := parseAllow(raw[idx:], i+1)
			if len(d.checks) == 0 {
				continue
			}
			trailing := strings.TrimSpace(raw[:idx]) != ""
			if trailing {
				byLine[i+1] = append(byLine[i+1], d)
				continue
			}
			// Preceding form: cover the next line that holds code.
			for j := i + 1; j < len(lines); j++ {
				t := strings.TrimSpace(lines[j])
				if t == "" || strings.HasPrefix(t, "//") {
					continue
				}
				byLine[j+1] = append(byLine[j+1], d)
				break
			}
		}
		if len(byLine) > 0 {
			p.allow[name] = byLine
		}
	}
}

// parseAllow parses `//caesarlint:allow name1,name2 -- rationale`.
func parseAllow(text string, line int) allowDirective {
	rest := strings.TrimPrefix(text, allowPrefix)
	var rationale string
	if i := strings.Index(rest, "--"); i >= 0 {
		rationale = strings.TrimSpace(rest[i+2:])
		rest = rest[:i]
	}
	var checks []string
	for _, c := range strings.Split(rest, ",") {
		if c = strings.TrimSpace(c); c != "" {
			checks = append(checks, c)
		}
	}
	return allowDirective{checks: checks, rationale: rationale, line: line}
}

// FactStore holds object- and package-level facts shared across the
// packages of one load. All methods are safe for concurrent use.
type FactStore struct {
	mu      sync.Mutex
	objects map[types.Object][]any
	pkgs    []any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{objects: make(map[types.Object][]any)}
}

// ExportObjectFact associates fact with obj.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	if obj == nil || p.Facts == nil {
		return
	}
	p.Facts.mu.Lock()
	defer p.Facts.mu.Unlock()
	p.Facts.objects[obj] = append(p.Facts.objects[obj], fact)
}

// ImportObjectFact copies the fact of *fact's type previously exported
// for obj into fact (a non-nil pointer) and reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact any) bool {
	if obj == nil || p.Facts == nil {
		return false
	}
	p.Facts.mu.Lock()
	defer p.Facts.mu.Unlock()
	want := reflect.TypeOf(fact)
	for _, f := range p.Facts.objects[obj] {
		if reflect.TypeOf(f) == want {
			reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}

// ExportPackageFact publishes a load-global fact (caesarlint uses these
// for lock-order declarations, which are naturally program-wide).
func (p *Pass) ExportPackageFact(fact any) {
	if p.Facts == nil {
		return
	}
	p.Facts.mu.Lock()
	defer p.Facts.mu.Unlock()
	p.Facts.pkgs = append(p.Facts.pkgs, fact)
}

// AllPackageFacts returns every package fact in the store assignable to
// example's type.
func (p *Pass) AllPackageFacts(example any) []any {
	if p.Facts == nil {
		return nil
	}
	p.Facts.mu.Lock()
	defer p.Facts.mu.Unlock()
	want := reflect.TypeOf(example)
	var out []any
	for _, f := range p.Facts.pkgs {
		if reflect.TypeOf(f) == want {
			out = append(out, f)
		}
	}
	return out
}
