// Package persistlint is a flow-sensitive crash-consistency analysis for
// the programs that run *on* the simulator (internal/workload, examples/),
// closing the gap the other bbbvet passes leave: they check the simulator's
// internals, while persistlint checks that simulated programs follow the
// persist-ordering discipline the paper's Figure 2 shows going wrong.
//
// The analysis tracks, per abstract memory location, a three-point
// persistency lattice
//
//	dirty → flushed → durable
//
// through every path of a function's control-flow graph (internal/vet/cfg)
// using a forward fixpoint (internal/vet/dataflow). A store through the
// cpu.Env interface makes its location dirty; a write-back (WriteBack,
// Clwb, Flush, Persist) moves dirty to flushed; a fence (Fence, SFence,
// Drain) moves flushed to durable; PersistBarrier does both for the lines
// it names. Locations are union-find classes over variables and normalized
// address expressions, so `node+offNext` and `node` are the same location
// and `cur = node` aliases the two names.
//
// Three diagnostic classes:
//
//  1. Ordering (the Figure 2 bug): a commit/publish store — a store
//     annotated `//bbbvet:commit-store [dep ...]` on its own or the
//     preceding line — executed while a dependee location is not yet
//     durable on some path. Dependees are the named locations, or, with no
//     names, every ever-dirtied location mentioned by the stored value.
//  2. Redundancy (a performance lint): flushing a line that is not dirty,
//     fencing with no flush pending, or barriering lines already durable.
//  3. Vacuity: a program-shaped function (exactly one cpu.Env parameter,
//     no results) that can reach exit with a location still dirty or
//     flushed — under the PMEM discipline that store may never persist. If
//     the function issues no barriers at all, Options.NoBarriers is
//     vacuous for it, which the diagnostic says.
//
// The analysis is scheme aware. A file-level `//bbbvet:scheme <pmem|bbb|
// eadr>` directive — or, absent one, a heuristic (the enclosing top-level
// declaration mentions SchemeBBB/SchemeEADR and not SchemePMEM) — marks
// code as targeting battery-backed schemes, where stores persist in
// program order on their own: ordering and vacuity diagnostics are
// suppressed there and barriers/flushes/fences are reported as no-ops
// (class 2) instead.
//
// Helpers are handled by flow-insensitive call summaries computed per
// package to a fixpoint: `barrier(e, p, addrs...)` is known to barrier its
// variadic argument, `writeNode(e, ...) Addr` is known to return a dirty
// location, and so on, so the workload code's factored persist discipline
// analyzes the same as inlined code.
package persistlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bbb/internal/vet"
	"bbb/internal/vet/cfg"
	"bbb/internal/vet/dataflow"
)

// Analyzer is the persistlint pass.
var Analyzer = &vet.Analyzer{
	Name: "persistlint",
	Doc: `	persistlint: flow-sensitive persist-ordering analysis.
	Tracks a dirty->flushed->durable lattice per location through cpu.Env
	programs; reports commit stores whose dependees may not be durable,
	redundant flushes/fences/barriers, and programs that never persist.`,
	Run: run,
}

// The per-location persistency states, ordered so join = max is the
// may-be-less-persisted direction. A location absent from a fact is
// durable (clean).
type state uint8

const (
	flushed state = iota + 1 // written back, fence still pending
	dirty                    // stored, not written back
)

func (s state) String() string {
	switch s {
	case flushed:
		return "flushed"
	case dirty:
		return "dirty"
	default:
		return "durable"
	}
}

// commitPrefix annotates publish stores; schemePrefix pins a file's target
// scheme. Both follow the //bbbvet: directive family of internal/vet.
const (
	commitPrefix = "//bbbvet:commit-store"
	schemePrefix = "//bbbvet:scheme"
)

func run(pass *vet.Pass) error {
	// The vet tooling itself manipulates Env-shaped ASTs in fixtures and
	// tests; analyzing it would be self-referential noise.
	if strings.HasPrefix(pass.Pkg.ImportPath, "bbb/internal/vet") {
		return nil
	}
	a := &analysis{
		pass:      pass,
		info:      pass.TypesInfo(),
		fset:      pass.Fset,
		byObj:     make(map[types.Object]*class),
		byKey:     make(map[string]*class),
		summaries: make(map[*types.Func]*summary),
		commits:   make(map[string]map[int][]string),
		schemes:   make(map[*ast.File]string),
	}
	a.collectDirectives()
	a.aliasPass()
	a.computeSummaries()
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			relaxed := a.relaxedContext(f, decl)
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				a.analyzeUnit(fd.Body, fd.Type, fd.Recv != nil, relaxed)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.analyzeUnit(lit.Body, lit.Type, false, relaxed)
				}
				return true
			})
		}
	}
	return nil
}

// analysis is the per-package state shared by every analyzed function.
type analysis struct {
	pass      *vet.Pass
	info      *types.Info
	fset      *token.FileSet
	byObj     map[types.Object]*class
	byKey     map[string]*class
	summaries map[*types.Func]*summary
	// commits maps file -> line -> the directive's dependee names (empty
	// slice = infer from the stored value). A directive covers its own
	// line and the next, like //bbbvet:ignore.
	commits map[string]map[int][]string
	schemes map[*ast.File]string
}

// --- abstract locations (union-find) ---

// class is one abstract location: a union-find node whose root represents
// every variable and address expression known to name the same memory.
type class struct {
	parent *class
	name   string // display name (first name registered)
}

func (c *class) find() *class {
	for c.parent != nil {
		if c.parent.parent != nil {
			c.parent = c.parent.parent // path halving
		}
		c = c.parent
	}
	return c
}

func union(a, b *class) {
	ra, rb := a.find(), b.find()
	if ra != rb {
		rb.parent = ra
	}
}

// classOf interns the class of a variable object.
func (a *analysis) classOf(obj types.Object) *class {
	if c, ok := a.byObj[obj]; ok {
		return c.find()
	}
	c := &class{name: obj.Name()}
	a.byObj[obj] = c
	return c
}

// keyClass interns the class of a non-variable address expression by its
// normalized source text, so two occurrences of `a.elem(idx)` agree.
func (a *analysis) keyClass(e ast.Expr) *class {
	key := types.ExprString(e)
	if c, ok := a.byKey[key]; ok {
		return c.find()
	}
	c := &class{name: key}
	a.byKey[key] = c
	return c
}

// varBase resolves an address expression to the variable it is rooted in:
// `node+offNext` and `memory.LineAddr(ptrCell)` resolve to node/ptrCell.
// Returns nil when no variable root exists.
func (a *analysis) varBase(e ast.Expr) *class {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := a.info.Uses[e]
		if obj == nil {
			obj = a.info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return a.classOf(v)
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			if c := a.varBase(e.X); c != nil {
				return c
			}
			return a.varBase(e.Y)
		}
	case *ast.CallExpr:
		if len(e.Args) != 1 {
			return nil
		}
		if tv, ok := a.info.Types[e.Fun]; ok && tv.IsType() {
			return a.varBase(e.Args[0]) // conversion: memory.Addr(x)
		}
		// Address-shaping helpers like memory.LineAddr(ptrCell): one
		// argument, same type in and out.
		argT, resT := a.typeOf(e.Args[0]), a.typeOf(e)
		if argT != nil && resT != nil && types.Identical(argT, resT) {
			return a.varBase(e.Args[0])
		}
	}
	return nil
}

// locOf resolves an address expression to its abstract location, falling
// back to the normalized-text class when no variable roots it.
func (a *analysis) locOf(e ast.Expr) *class {
	if c := a.varBase(e); c != nil {
		return c.find()
	}
	return a.keyClass(e).find()
}

func (a *analysis) typeOf(e ast.Expr) types.Type {
	if tv, ok := a.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isEnvType reports whether t is the simulator execution interface — any
// named (or aliased) type called Env, so the analysis works identically
// on cpu.Env, the public bbb.Env alias, and self-contained fixtures.
func isEnvType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name() == "Env"
	}
	return false
}

// --- directives ---

func (a *analysis) collectDirectives() {
	for _, f := range a.pass.Files() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSuffix(c.Text, "*/")
				if i := strings.Index(text, "/*"); i == 0 {
					text = "//" + strings.TrimSpace(text[2:])
				}
				switch {
				case strings.HasPrefix(text, commitPrefix):
					deps := strings.Fields(strings.TrimPrefix(text, commitPrefix))
					pos := a.fset.Position(c.Pos())
					byLine := a.commits[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						a.commits[pos.Filename] = byLine
					}
					if deps == nil {
						deps = []string{}
					}
					byLine[pos.Line] = deps
					byLine[pos.Line+1] = deps
				case strings.HasPrefix(text, schemePrefix):
					val := strings.TrimSpace(strings.TrimPrefix(text, schemePrefix))
					switch val {
					case "pmem", "bbb", "eadr":
						a.schemes[f] = val
					default:
						a.pass.Reportf(c.Pos(), "unknown scheme %q in %s directive (want pmem, bbb or eadr)", val, schemePrefix)
					}
				}
			}
		}
	}
}

// commitDeps returns the commit-store directive covering pos, if any.
func (a *analysis) commitDeps(pos token.Pos) ([]string, bool) {
	p := a.fset.Position(pos)
	deps, ok := a.commits[p.Filename][p.Line]
	return deps, ok
}

// relaxedContext decides whether decl's code targets a battery-backed
// scheme (BBB/eADR), where the hardware persists stores in program order
// and barrier discipline is unnecessary.
func (a *analysis) relaxedContext(f *ast.File, decl ast.Decl) bool {
	if s, ok := a.schemes[f]; ok {
		return s != "pmem"
	}
	var bbb, pmem bool
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch id.Name {
			case "SchemeBBB", "SchemeEADR":
				bbb = true
			case "SchemePMEM":
				pmem = true
			}
		}
		return true
	})
	return bbb && !pmem
}

// --- alias pre-pass ---

// aliasPass unions abstract locations flow-insensitively across the whole
// package: plain copies (`cur = node`), tuple copies, slice building
// (`append(addrs, s)`, `[]Addr{leaf}`) and range-over-slice values all
// name the same underlying memory as their source. Running this to
// completion before any dataflow keeps union-find roots stable.
func (a *analysis) aliasPass() {
	for _, f := range a.pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						a.aliasAssign(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						a.aliasAssign(n.Names[i], n.Values[i])
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if dst := a.varBase(n.Value); dst != nil {
						if src := a.varBase(n.X); src != nil {
							union(dst, src)
						}
					}
				}
			}
			return true
		})
	}
}

func (a *analysis) aliasAssign(lhs, rhs ast.Expr) {
	dst := a.varBase(lhs)
	if dst == nil {
		return
	}
	switch r := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if src := a.varBase(r); src != nil {
			union(dst, src)
		}
	case *ast.CompositeLit:
		for _, elt := range r.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if src := a.varBase(elt); src != nil {
				union(dst, src)
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range r.Args {
				if src := a.varBase(arg); src != nil {
					union(dst, src)
				}
			}
		}
	}
}

// --- call summaries ---

// summary is a helper function's flow-insensitive persistency effect,
// expressed over parameter and result indices so call sites can map it
// onto their arguments.
type summary struct {
	nparams      int
	variadic     bool
	nresults     int
	dirtyParams  map[int]bool
	flushParams  map[int]bool
	barrierParam map[int]bool
	dirtyResults map[int]bool
	fences       bool
}

func (s *summary) equal(o *summary) bool {
	return o != nil && s.fences == o.fences &&
		setsEqual(s.dirtyParams, o.dirtyParams) &&
		setsEqual(s.flushParams, o.flushParams) &&
		setsEqual(s.barrierParam, o.barrierParam) &&
		setsEqual(s.dirtyResults, o.dirtyResults)
}

func setsEqual(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// computeSummaries iterates scanSummary over every package function until
// the summaries stop changing, so recursive helpers (the btree's
// shadowInsert) converge.
func (a *analysis) computeSummaries() {
	var decls []*ast.FuncDecl
	for _, f := range a.pass.Files() {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, fd := range decls {
			fn, ok := a.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := a.scanSummary(fd, fn)
			if !s.equal(a.summaries[fn]) {
				a.summaries[fn] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// scanSummary computes one function's effect sets by a flow-insensitive
// walk of its body (nested function literals excluded — they run later).
func (a *analysis) scanSummary(fd *ast.FuncDecl, fn *types.Func) *summary {
	eff := &effects{dirty: map[*class]bool{}, flush: map[*class]bool{}, barrier: map[*class]bool{}}
	walkSkippingFuncLits(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			a.callEffects(n, eff)
		case *ast.AssignStmt:
			a.bindDirtyResults(n, func(lhs ast.Expr, pos token.Pos) {
				eff.dirty[a.locOf(lhs)] = true
			})
		}
	})

	sig := fn.Type().(*types.Signature)
	s := &summary{
		nparams:      sig.Params().Len(),
		variadic:     sig.Variadic(),
		nresults:     sig.Results().Len(),
		dirtyParams:  map[int]bool{},
		flushParams:  map[int]bool{},
		barrierParam: map[int]bool{},
		dirtyResults: map[int]bool{},
		fences:       eff.fences,
	}
	for i := 0; i < sig.Params().Len(); i++ {
		c := a.classOf(sig.Params().At(i)).find()
		if eff.dirty[c] {
			s.dirtyParams[i] = true
		}
		if eff.flush[c] {
			s.flushParams[i] = true
		}
		if eff.barrier[c] {
			s.barrierParam[i] = true
		}
	}
	walkSkippingFuncLits(fd.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for j, r := range ret.Results {
			if j >= s.nresults {
				break
			}
			for _, c := range a.returnClasses(r) {
				if eff.dirty[c.find()] {
					s.dirtyResults[j] = true
				}
			}
		}
	})
	return s
}

// effects accumulates a summary scan's class-level facts.
type effects struct {
	dirty, flush, barrier map[*class]bool
	fences                bool
}

// callEffects folds one call's persistency effect into eff, resolving Env
// methods, the cpu.Store64 convenience, and already-summarized helpers.
func (a *analysis) callEffects(call *ast.CallExpr, eff *effects) {
	op, ok := a.resolveCall(call)
	if !ok {
		return
	}
	for _, e := range op.dirtyAddrs {
		eff.dirty[a.locOf(e)] = true
	}
	for _, e := range op.flushAddrs {
		eff.flush[a.locOf(e)] = true
	}
	for _, e := range op.barrierAddrs {
		eff.barrier[a.locOf(e)] = true
	}
	if op.fences {
		eff.fences = true
	}
}

// returnClasses lists the location classes a returned expression carries:
// the variable root of an ident/arithmetic expression, every element of a
// composite literal, every argument of an append.
func (a *analysis) returnClasses(e ast.Expr) []*class {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		var out []*class
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = append(out, a.returnClasses(elt)...)
		}
		return out
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			var out []*class
			for _, arg := range e.Args {
				out = append(out, a.returnClasses(arg)...)
			}
			return out
		}
		if tv, ok := a.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return a.returnClasses(e.Args[0])
		}
	default:
		if c := a.varBase(ast.Unparen(e)); c != nil {
			return []*class{c}
		}
	}
	return nil
}

// bindDirtyResults calls f on each left-hand side that receives a dirty
// result of a summarized helper (`n := writeNode(e, ...)`).
func (a *analysis) bindDirtyResults(as *ast.AssignStmt, f func(lhs ast.Expr, pos token.Pos)) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := a.calleeFunc(call)
	if fn == nil {
		return
	}
	s := a.summaries[fn]
	if s == nil || len(s.dirtyResults) == 0 || len(as.Lhs) != s.nresults {
		return
	}
	for i := range as.Lhs {
		if s.dirtyResults[i] {
			f(as.Lhs[i], call.Pos())
		}
	}
}

// calleeFunc resolves a call's target *types.Func (nil for conversions,
// builtins, method values and indirect calls).
func (a *analysis) calleeFunc(call *ast.CallExpr) *types.Func {
	if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := a.info.Uses[id].(*types.Func)
	return fn
}

// --- call resolution ---

// callOp is the normalized persistency effect of one call expression.
type callOp struct {
	dirtyAddrs   []ast.Expr // locations stored to
	flushAddrs   []ast.Expr // locations written back
	barrierAddrs []ast.Expr // locations flushed+fenced together
	fences       bool       // completes pending flushes
	// publish is the address stored by a direct Store/CAS/Store64 — the
	// expression a commit-store directive applies to (nil otherwise).
	publish ast.Expr
	// value is the stored value expression, for dependee inference.
	value ast.Expr
}

// resolveCall classifies one call: a direct Env method, the Store64/Load64
// conveniences (any package), or a same-package summarized helper.
func (a *analysis) resolveCall(call *ast.CallExpr) (callOp, bool) {
	var op callOp
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isEnvType(a.typeOf(sel.X)) {
		switch sel.Sel.Name {
		case "Store":
			if len(call.Args) >= 1 {
				op.dirtyAddrs = []ast.Expr{call.Args[0]}
				op.publish = call.Args[0]
				if len(call.Args) >= 3 {
					op.value = call.Args[2]
				}
			}
		case "CompareAndSwap":
			if len(call.Args) >= 1 {
				op.dirtyAddrs = []ast.Expr{call.Args[0]}
				op.publish = call.Args[0]
				if len(call.Args) >= 4 {
					op.value = call.Args[3]
				}
			}
		case "WriteBack", "Clwb", "Flush", "Persist":
			if len(call.Args) >= 1 {
				op.flushAddrs = []ast.Expr{call.Args[0]}
			}
		case "PersistBarrier":
			op.barrierAddrs = call.Args
			op.fences = true
		case "Fence", "SFence", "Drain":
			op.fences = true
		default:
			return op, false
		}
		return op, true
	}

	fn := a.calleeFunc(call)
	if fn == nil {
		return op, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return op, false
	}
	firstIsEnv := sig.Params().Len() > 0 && isEnvType(sig.Params().At(0).Type())
	if firstIsEnv && fn.Name() == "Store64" && len(call.Args) >= 2 {
		op.dirtyAddrs = []ast.Expr{call.Args[1]}
		op.publish = call.Args[1]
		if len(call.Args) >= 3 {
			op.value = call.Args[2]
		}
		return op, true
	}
	if firstIsEnv && fn.Name() == "Load64" {
		return op, true // known pure read
	}
	// The pds persistence-tagged primitives (internal/pds) are intrinsics
	// like Store64: hardcoding them lets the commit-store contract attach
	// to CASP/StoreP publishes and keeps cross-package callers visible,
	// which is how persistlint verifies the library's emitted flush
	// discipline with zero suppressions.
	if firstIsEnv && fn.Name() == "StoreP" && len(call.Args) >= 3 {
		op.dirtyAddrs = []ast.Expr{call.Args[1]}
		op.flushAddrs = []ast.Expr{call.Args[1]}
		op.publish = call.Args[1]
		op.value = call.Args[2]
		return op, true
	}
	if firstIsEnv && fn.Name() == "LoadP" {
		return op, true // tagged load lowers to a plain load
	}
	if firstIsEnv && fn.Name() == "CASP" && len(call.Args) >= 4 {
		op.dirtyAddrs = []ast.Expr{call.Args[1]}
		op.flushAddrs = []ast.Expr{call.Args[1]}
		op.fences = true
		op.publish = call.Args[1]
		op.value = call.Args[3]
		return op, true
	}
	if firstIsEnv && fn.Name() == "FlushP" && len(call.Args) >= 2 {
		op.flushAddrs = []ast.Expr{call.Args[1]}
		return op, true
	}
	if firstIsEnv && fn.Name() == "DrainP" {
		op.fences = true
		return op, true
	}
	// cpu.PersistBarrier is the non-allocating front door to
	// Env.PersistBarrier; the address list starts at argument 1.
	if firstIsEnv && fn.Name() == "PersistBarrier" {
		op.barrierAddrs = call.Args[1:]
		op.fences = true
		return op, true
	}
	s := a.summaries[fn]
	if s == nil {
		return op, false
	}
	// Map the summary's parameter indices onto this call's arguments,
	// expanding the variadic tail (and a spread `xs...` argument).
	argsAt := func(i int) []ast.Expr {
		if s.variadic && i == s.nparams-1 {
			if i < len(call.Args) {
				return call.Args[i:]
			}
			return nil
		}
		if i < len(call.Args) {
			return []ast.Expr{call.Args[i]}
		}
		return nil
	}
	for i := range s.dirtyParams {
		op.dirtyAddrs = append(op.dirtyAddrs, argsAt(i)...)
	}
	for i := range s.flushParams {
		op.flushAddrs = append(op.flushAddrs, argsAt(i)...)
	}
	for i := range s.barrierParam {
		op.barrierAddrs = append(op.barrierAddrs, argsAt(i)...)
	}
	op.fences = s.fences || len(s.barrierParam) > 0
	return op, len(op.dirtyAddrs)+len(op.flushAddrs)+len(op.barrierAddrs) > 0 || op.fences
}

// --- per-function dataflow ---

// locInfo is one location's lattice point plus the store that put it there
// (for anchoring exit-state diagnostics).
type locInfo struct {
	st  state
	pos token.Pos
	// mayFlushed records a write-back pending on some path: Join keeps
	// only the worst state, so a location flushed on one path and dirty on
	// another joins to dirty, yet a fence there still has work to do.
	mayFlushed bool
}

// fact maps abstract locations to their persistency state; absent means
// durable. reached distinguishes dead blocks from the empty fact.
type fact struct {
	reached bool
	locs    map[*class]locInfo
}

// unit analyzes one function body. It implements dataflow.Problem twice
// over: a silent fixpoint pass, then a reporting replay over the final
// block-entry facts.
type unit struct {
	a             *analysis
	relaxed       bool
	everDirty     map[*class]bool
	names         map[string]map[*class]bool
	hasBarrierOps bool
	scanning      bool // pre-scan mode: collect everDirty, no facts
	report        bool // replay mode: emit diagnostics
}

func (u *unit) Entry() fact  { return fact{reached: true, locs: map[*class]locInfo{}} }
func (u *unit) Bottom() fact { return fact{} }

func (u *unit) Clone(f fact) fact {
	locs := make(map[*class]locInfo, len(f.locs))
	for c, li := range f.locs {
		locs[c] = li
	}
	return fact{reached: f.reached, locs: locs}
}

func (u *unit) Equal(a, b fact) bool {
	if a.reached != b.reached || len(a.locs) != len(b.locs) {
		return false
	}
	for c, li := range a.locs {
		if b.locs[c] != li {
			return false
		}
	}
	return true
}

func (u *unit) Join(a, b fact) fact {
	if !a.reached {
		return u.Clone(b)
	}
	if !b.reached {
		return u.Clone(a)
	}
	out := u.Clone(a)
	for c, bi := range b.locs {
		ai, ok := out.locs[c]
		may := ai.mayFlushed || bi.mayFlushed
		if !ok || bi.st > ai.st || bi.st == ai.st && bi.pos < ai.pos {
			ai = bi
		}
		ai.mayFlushed = may
		out.locs[c] = ai
	}
	return out
}

func (u *unit) Transfer(n ast.Node, f fact) fact {
	if !f.reached {
		return f
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		u.walk(n, &f)
		u.a.bindDirtyResults(n, func(lhs ast.Expr, pos token.Pos) {
			u.dirty(&f, u.a.locOf(lhs), pos)
		})
	case *ast.RangeStmt:
		u.walk(n.X, &f)
	default:
		u.walk(n, &f)
	}
	return f
}

// walk processes every call in n, in source order, against the fact.
func (u *unit) walk(n ast.Node, f *fact) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // analyzed as its own unit
		}
		if call, ok := m.(*ast.CallExpr); ok {
			u.apply(call, f)
		}
		return true
	})
}

func (u *unit) apply(call *ast.CallExpr, f *fact) {
	op, ok := u.a.resolveCall(call)
	if !ok {
		return
	}
	if op.publish != nil {
		u.commitCheck(call, op, f)
	}
	for _, e := range op.dirtyAddrs {
		u.dirty(f, u.a.locOf(e), call.Pos())
	}
	for _, e := range op.flushAddrs {
		u.flush(f, u.a.locOf(e), call)
	}
	if len(op.barrierAddrs) > 0 || (op.fences && isBarrierCall(call)) {
		u.barrier(f, op.barrierAddrs, call)
	} else if op.fences {
		u.fence(f, call)
	}
}

// isBarrierCall distinguishes a direct PersistBarrier() with no addresses
// (still a barrier, fences everything) from a plain Fence method.
func isBarrierCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "PersistBarrier"
}

func (u *unit) dirty(f *fact, c *class, pos token.Pos) {
	if u.scanning {
		u.everDirty[c] = true
		return
	}
	f.locs[c] = locInfo{st: dirty, pos: pos}
}

func (u *unit) flush(f *fact, c *class, call *ast.CallExpr) {
	if u.scanning {
		u.hasBarrierOps = true
		return
	}
	if u.relaxed {
		if u.report {
			u.a.pass.Reportf(call.Pos(), "flush is a no-op under BBB/eADR (stores persist in program order)")
		}
		return
	}
	li, present := f.locs[c]
	if u.report && u.everDirty[c] && (!present || li.st != dirty) {
		u.a.pass.Reportf(call.Pos(), "redundant flush of %s: already %s on every path here", c.name, li.st)
	}
	if present && li.st == dirty {
		f.locs[c] = locInfo{st: flushed, pos: li.pos, mayFlushed: true}
	}
}

func (u *unit) barrier(f *fact, addrs []ast.Expr, call *ast.CallExpr) {
	if u.scanning {
		u.hasBarrierOps = true
		return
	}
	if u.relaxed {
		if u.report {
			u.a.pass.Reportf(call.Pos(), "persist barrier is a no-op under BBB/eADR (stores persist in program order)")
		}
		return
	}
	classes := make([]*class, 0, len(addrs))
	for _, e := range addrs {
		classes = append(classes, u.a.locOf(e))
	}
	if u.report && len(classes) > 0 && isBarrierCall(call) {
		redundant := !anyFlushed(f)
		names := make([]string, 0, len(classes))
		for _, c := range classes {
			if !u.everDirty[c] {
				redundant = false
				break
			}
			if _, present := f.locs[c]; present {
				redundant = false
				break
			}
			names = append(names, c.name)
		}
		if redundant {
			u.a.pass.Reportf(call.Pos(), "redundant persist barrier: %s already durable on every path here and no flushed stores pending", strings.Join(names, ", "))
		}
	}
	for _, c := range classes {
		delete(f.locs, c)
	}
	// The barrier's fence completes every outstanding write-back too.
	completeFlushed(f)
}

func (u *unit) fence(f *fact, call *ast.CallExpr) {
	if u.scanning {
		u.hasBarrierOps = true
		return
	}
	if u.relaxed {
		if u.report {
			u.a.pass.Reportf(call.Pos(), "fence is a no-op under BBB/eADR (stores persist in program order)")
		}
		return
	}
	if u.report && !anyFlushed(f) && len(u.everDirty) > 0 {
		u.a.pass.Reportf(call.Pos(), "redundant fence: no flushed stores pending on any path here")
	}
	completeFlushed(f)
}

func anyFlushed(f *fact) bool {
	for _, li := range f.locs {
		if li.mayFlushed {
			return true
		}
	}
	return false
}

func completeFlushed(f *fact) {
	for c, li := range f.locs {
		switch {
		case li.st == flushed:
			delete(f.locs, c)
		case li.mayFlushed:
			li.mayFlushed = false
			f.locs[c] = li
		}
	}
}

// commitCheck enforces the ordering contract at an annotated publish
// store: every dependee must be durable on every path reaching it.
func (u *unit) commitCheck(call *ast.CallExpr, op callOp, f *fact) {
	deps, ok := u.a.commitDeps(call.Pos())
	if !ok || u.scanning || !u.report || u.relaxed {
		return
	}
	checked := map[*class]bool{}
	check := func(c *class, name string) {
		if checked[c] {
			return
		}
		checked[c] = true
		li, present := f.locs[c]
		if !present {
			return // durable on every path: the contract holds
		}
		switch li.st {
		case dirty:
			u.a.pass.Reportf(call.Pos(), "commit store: dependee %s is dirty (not yet flushed) on some path to this publish", name)
		case flushed:
			u.a.pass.Reportf(call.Pos(), "commit store: dependee %s is flushed but not yet fenced on some path to this publish", name)
		}
	}
	if len(deps) > 0 {
		for _, name := range deps {
			classes := u.names[name]
			if len(classes) == 0 {
				u.a.pass.Reportf(call.Pos(), "commit-store dependee %q does not name a location in this function", name)
				continue
			}
			for c := range classes {
				check(c, name)
			}
		}
		return
	}
	// No explicit names: every ever-dirtied location the stored value
	// mentions is a dependee (publishing node makes node recoverable).
	if op.value == nil {
		return
	}
	ast.Inspect(op.value, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		if v, isVar := u.a.info.Uses[id].(*types.Var); isVar {
			if c := u.a.classOf(v).find(); u.everDirty[c] {
				check(c, id.Name)
			}
		}
		return true
	})
}

// --- driving one function ---

// analyzeUnit runs the lattice over one function body: a silent fixpoint,
// a reporting replay, and the program-exit durability check.
func (a *analysis) analyzeUnit(body *ast.BlockStmt, ftype *ast.FuncType, hasRecv, relaxed bool) {
	u := &unit{
		a:         a,
		relaxed:   relaxed,
		everDirty: map[*class]bool{},
		names:     map[string]map[*class]bool{},
	}
	// Pre-scan: which locations ever get dirtied here, does the function
	// barrier at all, and which names map to which classes.
	u.scanning = true
	var dummy fact
	walkSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			u.apply(n, &dummy)
		case *ast.AssignStmt:
			a.bindDirtyResults(n, func(lhs ast.Expr, pos token.Pos) {
				u.everDirty[a.locOf(lhs)] = true
			})
		case *ast.Ident:
			obj := a.info.Uses[n]
			if obj == nil {
				obj = a.info.Defs[n]
			}
			if v, ok := obj.(*types.Var); ok {
				c := a.classOf(v).find()
				if u.names[n.Name] == nil {
					u.names[n.Name] = map[*class]bool{}
				}
				u.names[n.Name][c] = true
			}
		}
	})
	u.scanning = false
	if len(u.everDirty) == 0 && !u.hasBarrierOps {
		return // no persistency traffic at all
	}

	g := cfg.New(body)
	in := dataflow.Forward[fact](g, u)

	// Replay with reporting over the settled facts; dead blocks (still at
	// bottom) report nothing.
	u.report = true
	for _, b := range g.Blocks {
		f := u.Clone(in[b])
		if !f.reached {
			continue
		}
		for _, n := range b.Nodes {
			f = u.Transfer(n, f)
		}
	}
	u.report = false

	// Exit-state check for program-shaped functions under the strict
	// discipline: anything not durable at exit may never persist.
	if relaxed || hasRecv || !programShaped(a, ftype) {
		return
	}
	exit := in[g.Exit]
	if !exit.reached {
		return
	}
	type leak struct {
		c  *class
		li locInfo
	}
	var leaks []leak
	for c, li := range exit.locs {
		leaks = append(leaks, leak{c, li})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].li.pos < leaks[j].li.pos })
	for _, l := range leaks {
		msg := fmt.Sprintf("store to %s is never made durable on some path to program exit (still %s)", l.c.name, l.li.st)
		if !u.hasBarrierOps {
			msg += " — this program issues no barriers at all, so Options.NoBarriers is vacuous for it"
		}
		a.pass.Reportf(l.li.pos, "%s", msg)
	}
}

// programShaped reports whether ftype is a simulator program: exactly one
// parameter, of Env type, and no results — the system.Program shape.
func programShaped(a *analysis, ftype *ast.FuncType) bool {
	if ftype.Results != nil && len(ftype.Results.List) > 0 {
		return false
	}
	if ftype.Params == nil || len(ftype.Params.List) != 1 {
		return false
	}
	p := ftype.Params.List[0]
	if len(p.Names) > 1 {
		return false
	}
	return isEnvType(a.typeOf(p.Type))
}

// walkSkippingFuncLits visits every node of body except nested function
// literal bodies, which execute on their own schedule and are analyzed as
// separate units.
func walkSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
