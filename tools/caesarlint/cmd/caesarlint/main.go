// Command caesarlint runs the repo's concurrency & determinism
// analyzers (wallclock, loopblock, lockorder, atomicfield, maprange)
// and its dead-configuration check (deadknob) in one of two modes:
//
// Standalone (authoritative — whole-repo load, cross-package facts):
//
//	caesarlint [-dir .] [-tests=true] [packages ...]
//
// Vet tool (per-compilation-unit, no cross-package facts — a strict
// subset of the standalone findings):
//
//	go vet -vettool=$(which caesarlint) ./...
//
// Exit codes: 0 clean, 1 operational failure, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/atomicfield"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/deadknob"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/lockorder"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/loopblock"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/maprange"
	"github.com/caesar-consensus/caesar/tools/caesarlint/analyzers/wallclock"
	"github.com/caesar-consensus/caesar/tools/caesarlint/internal/unitchecker"
)

var analyzers = []*analysis.Analyzer{
	wallclock.Analyzer,
	loopblock.Analyzer,
	lockorder.Analyzer,
	atomicfield.Analyzer,
	maprange.Analyzer,
	deadknob.Analyzer,
}

func main() {
	args := os.Args[1:]

	// The `go vet -vettool` protocol: a single *.cfg argument runs one
	// compilation unit; -V=full and -flags are capability queries cmd/go
	// issues before that.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitchecker.Run(args[0], analyzers))
	}
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}

	fs := flag.NewFlagSet("caesarlint", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	tests := fs.Bool("tests", true, "also analyze _test.go files and test packages")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: caesarlint [-dir .] [-tests=true] [packages ...]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, *dir, patterns, *tests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caesarlint: %v\n", err)
		os.Exit(1)
	}
	findings, err := analysis.RunAll(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caesarlint: %v\n", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// printVersion answers cmd/go's -V=full probe, which wants a stable
// content-derived identity line for build caching.
func printVersion() {
	name := filepath.Base(os.Args[0])
	var sum [sha256.Size]byte
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum = sha256.Sum256(data)
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", name, sum)
}
