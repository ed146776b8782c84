// Package unitchecker adapts the caesarlint analyzers to the protocol
// cmd/go speaks to `go vet -vettool` binaries: the driver invokes the
// tool once per compilation unit with a single *.cfg JSON argument
// naming the unit's files and the export data of everything it imports.
//
// The shim type-checks the unit against that export data and runs the
// analyzers on it in isolation. Facts do NOT cross units here — each
// `go vet` process starts empty, and the vetx file this shim writes is
// an empty placeholder — so cross-package findings (an imported order
// edge, a callee's acquires/blocks fact) are only surfaced by the
// standalone runner, which loads the whole repo into one process. The
// standalone run is therefore the authoritative sweep and a strict
// superset: a repo clean under `caesarlint ./...` is clean under
// `go vet -vettool` too.
package unitchecker

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis"
)

// Config is the subset of the JSON configuration cmd/go writes for vet
// tools that this shim consumes.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Run analyzes the unit described by configFile and returns the process
// exit code: 0 clean, 1 operational failure, 2 diagnostics reported.
func Run(configFile string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(configFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "caesarlint: parsing %s: %v\n", configFile, err)
		return 1
	}
	// cmd/go requires the facts file to exist after the run even though
	// this shim transmits none.
	writeVetx := func() error {
		if cfg.VetxOutput == "" {
			return nil
		}
		return os.WriteFile(cfg.VetxOutput, []byte{}, 0o666)
	}
	if cfg.VetxOnly {
		// The unit is only needed as a dependency; with no facts to
		// compute there is nothing to do.
		if err := writeVetx(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return typecheckFailure(cfg, writeVetx, err)
		}
		files = append(files, f)
	}

	// Imports resolve through the export data cmd/go compiled for the
	// unit's dependencies; ImportMap translates source import paths
	// (vendoring, test variants) to the canonical package paths keying
	// PackageFile.
	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(path)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{Importer: imp}
	if v := cfg.GoVersion; v != "" && strings.Count(v, ".") <= 1 {
		tconf.GoVersion = v
	}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return typecheckFailure(cfg, writeVetx, err)
	}

	// One unit is not the whole program, so whole-program checks (the
	// Finish hooks) do not run here.
	perUnit := make([]*analysis.Analyzer, len(analyzers))
	for i, a := range analyzers {
		a := *a
		a.Finish = nil
		perUnit[i] = &a
	}
	pkg := &analysis.Package{Path: cfg.ImportPath, Files: files, Types: tpkg, Info: info}
	findings, err := analysis.RunAll(fset, []*analysis.Package{pkg}, perUnit)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := writeVetx(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// typecheckFailure honors SucceedOnTypecheckFailure, under which cmd/go
// expects silence and success (it reports the build error itself).
func typecheckFailure(cfg Config, writeVetx func() error, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		if werr := writeVetx(); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			return 1
		}
		return 0
	}
	fmt.Fprintln(os.Stderr, err)
	return 1
}
