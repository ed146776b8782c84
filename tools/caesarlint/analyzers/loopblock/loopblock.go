// Package loopblock guards CAESAR's single-threaded per-group event loop:
// protocol state needs no locking precisely because one goroutine consumes
// the inbox sequentially (protocol.Runtime's loop), so anything that parks
// that goroutine — an fsync, a blocking channel operation, a WaitGroup
// join, and above all a blocking Post back into the loop's own full inbox
// — stalls every group event behind it, and in the worst case (the PR-4
// lost-event race: a deferred-apply completion blocking on Post from the
// loop itself) deadlocks the replica outright.
//
// The analyzer finds the handler roots — the function an engine hands a
// StepFuncs constructor as its `step` (protocol.NewRuntime: the one method
// the runtime calls for every event), and any function value passed to a
// LoopTypes `Run` method (an event loop that takes its consumer) — walks the
// package-local static call graph from them, and flags, on every
// reachable path:
//
//   - calls to known-blocking primitives (time.Sleep, sync.WaitGroup.Wait,
//     sync.Cond.Wait, os.File.Sync, net dialing),
//   - a blocking Post or PostMessage back into the protocol.Runtime an
//     engine embeds (TryPost with a goroutine fallback is the sanctioned
//     pattern),
//   - bare channel sends/receives and default-less selects,
//   - calls into functions — same package or imported — whose bodies were
//     found to block (a "blocks" fact every package exports for its
//     blocking functions; cross-package facts flow in standalone runs).
//
// Code under a `go` statement escapes the loop goroutine and is exempt;
// function literals passed as arguments are treated as reachable, because
// completion callbacks do run synchronously on the loop (the deferred
// applier's pass path). Interface-dispatched calls cannot be resolved
// statically and are not walked, with one exception: the applier chain.
// A loop handler delivers every decided command through an ApplierTypes
// interface (deliverNow calls the chain's protocol.Applier.ApplyDeferred,
// whose layers call the synchronous protocol.TimestampedApplier below), and
// the chain reports back through another (protocol.Completion, whose
// Complete runs on the loop when the gate's pass path reaches
// protocol.Sync), so that dispatch is resolved to its implementations:
// every method by which a type of the analyzed package implements one of
// those interfaces is walked as a handler root, in the package that
// declares it — which is how a log layer parking its caller on a
// per-record channel, or a completion posting back into a full inbox
// (CAESAR's delivery.Complete), is caught although no handler names it.
// Test files are not analyzed (tests drive loops with deliberately
// synchronous handlers).
//
// Suppress with //caesarlint:allow loopblock -- <why this cannot stall
// the loop>.
package loopblock

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"github.com/caesar-consensus/caesar/tools/caesarlint/analysis"
)

// LoopTypes lists the event-loop types whose Run argument is a handler
// root and whose Post is the self-deadlock to catch, as
// "import/path.TypeName". Tests point it at golden packages.
var LoopTypes = []string{
	"github.com/caesar-consensus/caesar/internal/protocol.Runtime",
}

// StepFuncs lists the constructors whose parameter named `step` receives
// an engine's event handler — a root — as "import/path.FuncName". Their
// other function parameters (the drained hook) run off the loop and are
// not roots. Tests point it at golden packages.
var StepFuncs = []string{
	"github.com/caesar-consensus/caesar/internal/protocol.NewRuntime",
}

// ApplierTypes lists the interfaces through which a loop handler reaches
// the applier chain, and through which the chain calls back, as
// "import/path.TypeName": their implementations' methods are handler
// roots. Tests point it at golden packages.
var ApplierTypes = []string{
	"github.com/caesar-consensus/caesar/internal/protocol.Applier",
	"github.com/caesar-consensus/caesar/internal/protocol.TimestampedApplier",
	"github.com/caesar-consensus/caesar/internal/protocol.Completion",
}

// Analyzer is the loopblock check.
var Analyzer = &analysis.Analyzer{
	Name: "loopblock",
	Doc:  "flags blocking operations reachable from protocol.Runtime event handlers",
	Run:  run,
}

// BlocksFact marks a function whose body can block the calling
// goroutine, with a human-readable reason.
type BlocksFact struct{ Reason string }

// blocking primitives: package path, receiver type name ("" for plain
// functions), function name.
type primitive struct{ pkg, recv, name string }

var primitives = map[primitive]string{
	{"time", "", "Sleep"}:            "sleeps on the wall clock",
	{"sync", "WaitGroup", "Wait"}:    "joins a WaitGroup",
	{"sync", "Cond", "Wait"}:         "waits on a sync.Cond",
	{"os", "File", "Sync"}:           "fsyncs a file",
	{"net", "", "Dial"}:              "dials the network",
	{"net", "", "DialTimeout"}:       "dials the network",
	{"net", "Dialer", "Dial"}:        "dials the network",
	{"net", "Dialer", "DialContext"}: "dials the network",
}

func run(pass *analysis.Pass) error {
	files := nonTestFiles(pass)

	// Phase 1: every function's direct blocking reason, then a
	// same-package transitive fixpoint, exported as facts.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	blocks := make(map[*types.Func]string)
	blockReason := func(fn *types.Func) string {
		if r, ok := blocks[fn]; ok {
			return r
		}
		var fact BlocksFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Reason
		}
		return ""
	}
	for fn, fd := range decls {
		if reason := directBlockReason(pass, fd.Body); reason != "" {
			blocks[fn] = reason
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if blocks[fn] != "" {
				continue
			}
			callee, reason := firstBlockingCall(pass, fd.Body, blockReason)
			if callee != nil {
				blocks[fn] = fmt.Sprintf("calls %s, which %s", callee.Name(), reason)
				changed = true
			}
		}
	}
	for fn, reason := range blocks {
		pass.ExportObjectFact(fn, &BlocksFact{Reason: reason})
	}

	// Phase 2: walk the graph from the handler roots and report.
	w := &walker{
		pass:        pass,
		decls:       decls,
		blockReason: blockReason,
		visited:     make(map[*types.Func]bool),
		litVisited:  make(map[*ast.FuncLit]bool),
		reported:    make(map[string]bool),
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var root ast.Expr
			if isLoopMethod(pass, call, "Run") && len(call.Args) == 1 {
				root = call.Args[0]
			} else if i := stepParam(calleeFunc(pass, call)); i >= 0 && i < len(call.Args) {
				root = call.Args[i]
			}
			switch arg := root.(type) {
			case nil:
			case *ast.FuncLit:
				w.walkLit(arg)
			default:
				if fn := resolveFuncValue(pass, arg); fn != nil {
					w.walkFunc(fn)
				}
			}
			return true
		})
	}
	for _, fn := range applierRoots(pass, decls) {
		w.walkFunc(fn)
	}
	return nil
}

// applierRoots returns the declared methods by which a type of this
// package implements an ApplierTypes interface: the targets of the
// interface calls a loop handler makes into the applier chain. An
// interface the package cannot see (not among its transitive imports)
// has no implementation here that names its types, and is skipped.
func applierRoots(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	var ifaces []*types.Interface
	for _, full := range ApplierTypes {
		dot := strings.LastIndex(full, ".")
		if pkg := findPackage(pass.Pkg, full[:dot], make(map[*types.Package]bool)); pkg != nil {
			if tn, ok := pkg.Scope().Lookup(full[dot+1:]).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	var roots []*types.Func
	for fn := range decls {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		for _, iface := range ifaces {
			if !hasMethod(iface, fn.Name()) {
				continue
			}
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				roots = append(roots, fn)
				break
			}
		}
	}
	return roots
}

// findPackage finds the package with the given path among pkg and its
// transitive imports.
func findPackage(pkg *types.Package, path string, seen map[*types.Package]bool) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	seen[pkg] = true
	for _, imp := range pkg.Imports() {
		if !seen[imp] {
			if found := findPackage(imp, path, seen); found != nil {
				return found
			}
		}
	}
	return nil
}

// hasMethod reports whether iface (embedded interfaces included) declares
// a method of that name.
func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// walker performs the reachability walk and reporting.
type walker struct {
	pass        *analysis.Pass
	decls       map[*types.Func]*ast.FuncDecl
	blockReason func(*types.Func) string
	visited     map[*types.Func]bool
	litVisited  map[*ast.FuncLit]bool
	reported    map[string]bool
}

func (w *walker) walkFunc(fn *types.Func) {
	if w.visited[fn] {
		return
	}
	w.visited[fn] = true
	if fd, ok := w.decls[fn]; ok {
		w.walkBody(fd.Body)
	}
}

func (w *walker) walkLit(lit *ast.FuncLit) {
	if w.litVisited[lit] {
		return
	}
	w.litVisited[lit] = true
	w.walkBody(lit.Body)
}

func (w *walker) reportf(n ast.Node, format string, args ...any) {
	key := w.pass.Fset.Position(n.Pos()).String()
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(n.Pos(), format, args...)
}

// walkBody scans one reachable body. Channel operations under a select
// with a default clause are non-blocking and skipped; go statements run
// on another goroutine and end the walk.
func (w *walker) walkBody(body ast.Node) {
	if body == nil {
		return
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			// Declared here; walked where it is passed or called.
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				w.reportf(n, "select without a default blocks the event loop: no group event is processed until a case fires — restructure, or annotate //caesarlint:allow loopblock -- <why>")
			}
			// Clause bodies run after the (possibly non-)blocking comm;
			// walk them, but not the comm operations themselves.
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						ast.Inspect(stmt, walk)
					}
				}
			}
			return false
		case *ast.SendStmt:
			w.reportf(n, "channel send can block the event loop (unbounded wait if no receiver is ready) — use a select with default, buffer by construction, or annotate //caesarlint:allow loopblock -- <why>")
			return true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				w.reportf(n, "channel receive blocks the event loop until a sender arrives — move it off the loop or annotate //caesarlint:allow loopblock -- <why>")
			}
			return true
		case *ast.CallExpr:
			w.checkCall(n)
			// Function literals passed as arguments may be invoked
			// synchronously by the callee (completion callbacks on the
			// pass path); treat them as reachable.
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					w.walkLit(lit)
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

func (w *walker) checkCall(call *ast.CallExpr) {
	if isLoopMethod(w.pass, call, "Post") || isLoopMethod(w.pass, call, "PostMessage") {
		w.reportf(call, "blocking Post from the event loop back into itself deadlocks the replica when the inbox is full (the PR-4 lost-event class) — use TryPost with a goroutine fallback, or annotate //caesarlint:allow loopblock -- <why>")
		return
	}
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return
	}
	if reason, ok := primitives[primitiveOf(fn)]; ok {
		w.reportf(call, "%s %s on the event loop: the single-threaded loop processes nothing until it returns — move it off the loop or annotate //caesarlint:allow loopblock -- <why>", fn.Name(), reason)
		return
	}
	if _, local := w.decls[fn]; local {
		w.walkFunc(fn)
		return
	}
	if reason := w.blockReason(fn); reason != "" {
		w.reportf(call, "call to %s on the event loop blocks: it %s — move it off the loop or annotate //caesarlint:allow loopblock -- <why>", fn.Name(), reason)
	}
}

// directBlockReason reports why a body blocks directly, or "".
func directBlockReason(pass *analysis.Pass, body ast.Node) string {
	reason := ""
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				reason = "waits in a select with no default"
				return false
			}
			// Non-blocking select; only clause bodies matter.
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						ast.Inspect(stmt, walk)
					}
				}
			}
			return false
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				reason = "receives from a channel"
			}
			return true
		case *ast.CallExpr:
			if fn := calleeFunc(pass, n); fn != nil {
				if r, ok := primitives[primitiveOf(fn)]; ok {
					reason = r
					return false
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
	return reason
}

// firstBlockingCall finds a static call (outside go statements and
// function literals) to a function already known — locally or via an
// imported fact — to block.
func firstBlockingCall(pass *analysis.Pass, body ast.Node, reasonOf func(*types.Func) string) (*types.Func, string) {
	var foundFn *types.Func
	var foundReason string
	ast.Inspect(body, func(n ast.Node) bool {
		if foundFn != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(pass, n); fn != nil {
				if r := reasonOf(fn); r != "" {
					foundFn, foundReason = fn, r
					return false
				}
			}
		}
		return true
	})
	return foundFn, foundReason
}

// isLoopMethod reports whether call invokes method `name` of one of
// LoopTypes — on a value of the type, or promoted through a struct that
// embeds it.
func isLoopMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	p := primitiveOf(fn)
	full := p.pkg + "." + p.recv
	for _, lt := range LoopTypes {
		if p.recv != "" && full == lt {
			return true
		}
	}
	return false
}

// stepParam returns the index of the parameter named `step` when fn is one
// of StepFuncs, -1 otherwise.
func stepParam(fn *types.Func) int {
	if fn == nil || fn.Pkg() == nil {
		return -1
	}
	full := fn.Pkg().Path() + "." + fn.Name()
	for _, sf := range StepFuncs {
		if full != sf {
			continue
		}
		params := fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if params.At(i).Name() == "step" {
				return i
			}
		}
	}
	return -1
}

// resolveFuncValue resolves a function-valued argument (method value or
// plain function reference) to its *types.Func.
func resolveFuncValue(pass *analysis.Pass, arg ast.Expr) *types.Func {
	switch arg := arg.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[arg].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[arg.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeFunc statically resolves a call target.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// primitiveOf describes fn for the primitives table.
func primitiveOf(fn *types.Func) primitive {
	if fn.Pkg() == nil {
		return primitive{}
	}
	p := primitive{pkg: fn.Pkg().Path(), name: fn.Name()}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			p.recv = named.Obj().Name()
		}
	}
	return p
}

func nonTestFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}
