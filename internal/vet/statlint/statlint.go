// Package statlint cross-checks the module's stats.Counters usage. The
// counter namespace is stringly typed — `Stats.Inc("l1.load_hits")` — so a
// typo in either an increment or a read silently produces a counter that
// is always zero, and results tables quietly report garbage. statlint
// makes the namespace behave as if it were declared:
//
//   - The registry is stats.Glossary, the package-level
//     `map[string]string` of counter name -> meaning. Every counter the
//     simulator increments must either be documented there or be read
//     back explicitly with Get; a counter that is neither is dead weight.
//   - A Get of a name that nothing increments is reported — that is the
//     classic read-side typo ("bbpb.forced_drain" vs "bbpb.forced_drains").
//   - A Glossary entry whose name nothing increments is reported — a stale
//     or misspelled registration.
//
// Hot paths increment through cached handles (`h := Stats.Lazy(name)`,
// then `h.Inc()`); the Lazy registration carries the name, so it counts as
// the increment site. Prefixed counter families built through helpers (the
// memory controllers emit "dram.writes"/"nvmm.writes" via
// c.counter("writes")) are matched by suffix: an increment of the literal
// "writes" nested inside the Inc/Add/Lazy argument satisfies reads and
// registrations of any "<prefix>.writes".
//
// The histogram/gauge/windowed registry (stats.Metrics) shares the
// namespace and the failure mode, so it is audited the same way:
// Observe/Sample/MergeHist/MergeWindowed are write sites (like Inc/Add)
// and Hist/Gauge/Windowed are read sites (like Get).
//
// Reads in _test.go files count (a counter asserted by a test is consumed);
// test sources are scanned syntactically for Get/Hist/Gauge calls.
//
// One counter idiom: a name-keyed Counters.Inc/Add hashes its name on every
// call, so statlint also rejects one wherever it could run per event. It is
// allowed only in a constructor's own body (a top-level New, NewX, new or
// newX function; closures it builds run later, per event) and in cmd/
// programs; tests are not analyzed. Everywhere else the counter is bumped
// through a stats.Lazy handle resolved in the constructor, and a
// once-per-run fold that must name its counter says why with
// //bbbvet:ignore statlint <reason>.
package statlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"unicode"

	"bbb/internal/vet"
)

// Analyzer is the statlint pass.
var Analyzer = &vet.Analyzer{
	Name: "statlint",
	Doc: `	statlint: dead / misspelled stats counters and metrics.
	Every incremented counter (Counters.Inc/Add/Lazy) and observed metric
	(Metrics.Observe/Sample/MergeHist/MergeWindowed) must be documented in
	stats.Glossary or read back (Get/Hist/Gauge/Windowed); every read and
	every Glossary entry must name one some code writes. Name-keyed
	Counters.Inc/Add is allowed only in constructors and cmd/; elsewhere
	use a stats.Lazy handle.`,
	Run:    run,
	Finish: finish,
}

const statsPkgPath = "bbb/internal/stats"

// site is one recorded counter-name occurrence.
type site struct {
	name string
	pos  token.Pos
	pass *vet.Pass
}

// facts is the per-package state handed from Run to Finish.
type facts struct {
	incs     []site // exact names passed to Inc/Add
	incSufs  []site // literal fragments inside computed Inc/Add arguments
	gets     []site // exact names passed to Get
	glossary []site // keys of a package-level Glossary map literal
	dynamic  bool   // an Inc/Add argument with no literal at all was seen
}

func run(pass *vet.Pass) error {
	if strings.HasPrefix(pass.Pkg.ImportPath, "bbb/internal/vet") {
		return nil
	}
	fx := &facts{}
	pass.Facts = fx
	ownStats := pass.Pkg.ImportPath == statsPkgPath
	info := pass.TypesInfo()
	isCmd := strings.HasPrefix(pass.Pkg.ImportPath, "bbb/cmd/")
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			keyed, ctor := true, false // package-level initializers run once
			if fd, isFunc := decl.(*ast.FuncDecl); isFunc {
				keyed = isCmd
				ctor = isConstructor(fd)
			}
			inspect(decl, keyed, ctor, func(n ast.Node, keyedOK bool) {
				switch n := n.(type) {
				case *ast.CallExpr:
					if !ownStats { // the stats package's own plumbing is generic
						recordCall(info, n, fx, pass, keyedOK)
					}
				case *ast.ValueSpec:
					recordGlossary(n, fx, pass)
				}
			})
		}
	}
	// Reads from this package's test files (syntactic scan).
	for _, s := range testFileGets(pass) {
		fx.gets = append(fx.gets, s)
	}
	return nil
}

// inspect visits every node under root, passing whether a name-keyed
// increment is allowed there: everywhere when keyed, and in a
// constructor's own body (ctor) but not in the closures it builds, which
// run later, per event.
func inspect(root ast.Node, keyed, ctor bool, visit func(ast.Node, bool)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && ctor {
			inspect(lit.Body, keyed, false, visit)
			return false
		}
		if n != nil {
			visit(n, keyed || ctor)
		}
		return true
	})
}

// isConstructor reports whether fd is a top-level New/new function or one
// whose name goes on with an upper-case word (NewCore, newVPB; not newest).
func isConstructor(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	rest, ok := strings.CutPrefix(name, "New")
	if !ok {
		rest, ok = strings.CutPrefix(name, "new")
	}
	return fd.Recv == nil && ok && (rest == "" || unicode.IsUpper([]rune(rest)[0]))
}

func recordCall(info *types.Info, call *ast.CallExpr, fx *facts, pass *vet.Pass, keyedOK bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	var write, read bool
	switch {
	case isStatsMethod(fn, "Counters"):
		// Lazy is the hot-path increment form: the handle returned by
		// Counters.Lazy(name) is what Inc/Add fires on later, so the
		// registration site is where the name is written.
		write = fn.Name() == "Inc" || fn.Name() == "Add" || fn.Name() == "Lazy"
		read = fn.Name() == "Get"
		if !keyedOK && (fn.Name() == "Inc" || fn.Name() == "Add") {
			pass.Reportf(call.Pos(), "name-keyed Counters.%s outside a constructor hashes the name on every call; bump a stats.Lazy handle resolved in the constructor", fn.Name())
		}
	case isStatsMethod(fn, "Metrics"):
		// The histogram/gauge/windowed registry shares the stringly-typed
		// namespace: Observe/Sample/MergeHist/MergeWindowed write a metric,
		// Hist/Gauge/Windowed read it back.
		write = fn.Name() == "Observe" || fn.Name() == "Sample" ||
			fn.Name() == "MergeHist" || fn.Name() == "MergeWindowed"
		read = fn.Name() == "Hist" || fn.Name() == "Gauge" || fn.Name() == "Windowed"
	}
	arg := call.Args[0]
	switch {
	case write:
		if lit := stringLit(arg); lit != "" {
			fx.incs = append(fx.incs, site{lit, arg.Pos(), pass})
			return
		}
		sufs := literalsIn(arg)
		if len(sufs) == 0 {
			fx.dynamic = true
			return
		}
		for _, s := range sufs {
			fx.incSufs = append(fx.incSufs, site{s, arg.Pos(), pass})
		}
	case read:
		if lit := stringLit(arg); lit != "" {
			fx.gets = append(fx.gets, site{lit, arg.Pos(), pass})
		}
	}
}

// recordGlossary collects the keys of `var Glossary = map[string]string{...}`.
func recordGlossary(spec *ast.ValueSpec, fx *facts, pass *vet.Pass) {
	for i, name := range spec.Names {
		if name.Name != "Glossary" || i >= len(spec.Values) {
			continue
		}
		cl, ok := spec.Values[i].(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key := stringLit(kv.Key); key != "" {
				fx.glossary = append(fx.glossary, site{key, kv.Key.Pos(), pass})
			}
		}
	}
}

func isStatsMethod(fn *types.Func, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == statsPkgPath && named.Obj().Name() == typeName
}

func finish(all []*vet.Pass) []vet.Diagnostic {
	var merged facts
	dynamic := false
	for _, p := range all {
		fx, ok := p.Facts.(*facts)
		if !ok {
			continue
		}
		merged.incs = append(merged.incs, fx.incs...)
		merged.incSufs = append(merged.incSufs, fx.incSufs...)
		merged.gets = append(merged.gets, fx.gets...)
		merged.glossary = append(merged.glossary, fx.glossary...)
		dynamic = dynamic || fx.dynamic
	}

	incremented := func(name string) bool {
		for _, s := range merged.incs {
			if s.name == name {
				return true
			}
		}
		for _, s := range merged.incSufs {
			if s.name == name || strings.HasSuffix(name, "."+s.name) {
				return true
			}
		}
		return false
	}
	read := make(map[string]bool)
	for _, s := range merged.gets {
		read[s.name] = true
	}
	inGlossary := func(name string) bool {
		for _, g := range merged.glossary {
			if g.name == name {
				return true
			}
		}
		return false
	}

	var diags []vet.Diagnostic
	report := func(s site, format string, args ...any) {
		diags = append(diags, vet.Diagnostic{
			Analyzer: "statlint",
			Pos:      s.pass.Fset.Position(s.pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}

	if !dynamic {
		seen := map[string]bool{}
		for _, s := range merged.gets {
			if s.pos == token.NoPos || seen[s.name] || incremented(s.name) {
				continue
			}
			seen[s.name] = true
			report(s, "counter %q is read but never incremented anywhere in the module (typo?)", s.name)
		}
	}
	seenInc := map[string]bool{}
	for _, s := range merged.incs {
		if seenInc[s.name] || read[s.name] || inGlossary(s.name) {
			continue
		}
		seenInc[s.name] = true
		report(s, "counter %q is incremented but never read and not documented in stats.Glossary (dead counter?)", s.name)
	}
	seenGl := map[string]bool{}
	for _, g := range merged.glossary {
		if seenGl[g.name] || incremented(g.name) {
			continue
		}
		seenGl[g.name] = true
		report(g, "stats.Glossary documents %q but nothing increments it (stale entry?)", g.name)
	}
	return diags
}

// testFileGets scans the package's _test.go files syntactically for
// `x.Get("name")`, `x.Hist("name")` and `x.Gauge("name")` calls. Counters
// and metrics asserted by tests count as consumed, but test reads are
// recorded with NoPos so they are never themselves flagged as read-side
// typos (tests legitimately Get never-touched names to assert zero values).
func testFileGets(pass *vet.Pass) []site {
	files, err := filepath.Glob(filepath.Join(pass.Pkg.Dir, "*_test.go"))
	if err != nil {
		return nil
	}
	var out []site
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			continue // a broken test file is the compiler's problem
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Hist" &&
				sel.Sel.Name != "Gauge" && sel.Sel.Name != "Windowed") {
				return true
			}
			if lit := stringLit(call.Args[0]); lit != "" {
				out = append(out, site{lit, token.NoPos, pass})
			}
			return true
		})
	}
	return out
}

// stringLit returns the value of a string literal expression, or "".
func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return s
}

// literalsIn collects every string literal nested in e (helper calls,
// concatenations), used as suffix patterns for prefixed counter families.
func literalsIn(e ast.Expr) []string {
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(ast.Expr); ok {
			if s := stringLit(lit); s != "" {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}
