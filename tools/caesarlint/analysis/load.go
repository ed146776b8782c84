package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestVariant marks the augmented [pkg + _test.go] and external
	// _test packages; the runner reports only test-file diagnostics from
	// them so findings in shared files are not doubled.
	TestVariant bool
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath    string
	Dir           string
	Standard      bool
	GoFiles       []string
	TestGoFiles   []string
	XTestGoFiles  []string
	XTestImports  []string
	TestImports   []string
	Imports       []string
	Incomplete    bool
	ForTest       string
	Module        *struct{ Path string }
	DepsErrorsRaw json.RawMessage `json:"DepsErrors"`
}

// Load type-checks the packages matched by patterns (and, transitively,
// their non-standard dependencies) from source, in dependency order, all
// in one process: cross-package references resolve to the same
// types.Object instances, which is what lets the analyzers' fact store
// work without serialized fact files. Standard-library imports are
// resolved by the stdlib source importer, shared (and therefore cached)
// across the whole load. includeTests additionally loads each matched
// package's internal-test augmentation and external _test package.
func Load(fset *token.FileSet, dir string, patterns []string, includeTests bool) ([]*Package, error) {
	// -test pulls test-only dependencies (still in dependency order) into
	// the load, so the test variants below never fall back to the source
	// importer for an in-repo package — that would re-typecheck it into a
	// second, incompatible types.Package. The synthesized test variants
	// themselves (ForTest / pkg.test) are skipped; includeTests builds
	// them explicitly.
	deps, err := goList(dir, append([]string{"-deps", "-test"}, patterns...))
	if err != nil {
		return nil, err
	}
	matched, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	inMatch := make(map[string]bool, len(matched))
	for _, p := range matched {
		inMatch[p.ImportPath] = true
	}

	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	imp := &mapImporter{base: std, pkgs: checked}

	var out []*Package
	check := func(path string, dirpath string, files []string, testVariant bool, imp types.Importer) (*Package, error) {
		var asts []*ast.File
		for _, f := range files {
			file, err := parser.ParseFile(fset, filepath.Join(dirpath, f), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			asts = append(asts, file)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, asts, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", path, err)
		}
		return &Package{Path: path, Files: asts, Types: tpkg, Info: info, TestVariant: testVariant}, nil
	}

	// `go list -deps` emits packages in dependency order, so by the time
	// a package is checked every non-standard import is in `checked`.
	// recompiled holds, per package under test, the in-repo packages its
	// external test imports that import it in turn: go recompiles them
	// against the augmented package, and so does the xtest check below.
	recompiled := make(map[string][]*listPackage)
	for _, lp := range deps {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		if lp.ForTest != "" || strings.HasSuffix(lp.ImportPath, ".test") {
			if base := variantBase(lp.ImportPath); lp.ForTest != "" && base != lp.ForTest && base != lp.ForTest+"_test" {
				recompiled[lp.ForTest] = append(recompiled[lp.ForTest], lp)
			}
			continue
		}
		if _, done := checked[lp.ImportPath]; done {
			continue
		}
		pkg, err := check(lp.ImportPath, lp.Dir, lp.GoFiles, false, imp)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		if inMatch[lp.ImportPath] {
			out = append(out, pkg)
		}
	}
	if !includeTests {
		return out, nil
	}
	for _, lp := range matched {
		if lp.Standard {
			continue
		}
		var aug *types.Package
		if len(lp.TestGoFiles) > 0 {
			pkg, err := check(lp.ImportPath, lp.Dir, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...), true, imp)
			if err != nil {
				return nil, err
			}
			aug = pkg.Types
			out = append(out, pkg)
		}
		if len(lp.XTestGoFiles) > 0 {
			ximp := imp
			if aug != nil {
				// The external test package sees the augmented version
				// of the package under test, directly and through the
				// packages recompiled against it.
				variants := map[string]*types.Package{lp.ImportPath: aug}
				ximp = &mapImporter{base: imp, pkgs: variants}
				for _, dep := range recompiled[lp.ImportPath] {
					pkg, err := check(variantBase(dep.ImportPath), dep.Dir, dep.GoFiles, true, ximp)
					if err != nil {
						return nil, err
					}
					variants[pkg.Path] = pkg.Types
				}
			}
			pkg, err := check(lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles, true, ximp)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	return out, nil
}

// variantBase strips the " [p.test]" suffix go list gives a package
// compiled for p's tests.
func variantBase(importPath string) string {
	base, _, _ := strings.Cut(importPath, " [")
	return base
}

// goList runs `go list -json` with args in dir and decodes the stream.
func goList(dir string, args []string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var out []*listPackage
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		out = append(out, &lp)
	}
	return out, nil
}

// mapImporter serves already-checked packages by path and delegates the
// rest (the standard library) to base.
type mapImporter struct {
	base types.Importer
	pkgs map[string]*types.Package
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok && p != nil {
		return p, nil
	}
	return m.base.Import(path)
}
