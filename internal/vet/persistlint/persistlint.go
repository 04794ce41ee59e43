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
// Helpers are handled by flow-insensitive call summaries computed
// bottom-up over the package call graph (internal/vet/envprog: callees
// first, recursive helpers iterated until stable): `barrier(e, p,
// addrs...)` is known to barrier its variadic argument, `writeNode(e, ...)
// Addr` is known to return a dirty location, and so on, so the workload
// code's factored persist discipline analyzes the same as inlined code,
// however deep the helper chain.
package persistlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"bbb/internal/vet"
	"bbb/internal/vet/cfg"
	"bbb/internal/vet/dataflow"
	"bbb/internal/vet/envprog"
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

func run(pass *vet.Pass) error {
	if envprog.Tooling(pass.Pkg) {
		return nil
	}
	a := &analysis{
		Prog:      envprog.New(pass.Pkg, pass.Fset),
		pass:      pass,
		summaries: make(map[*types.Func]*summary),
	}
	for _, u := range a.UnknownSchemes {
		pass.Reportf(u.Pos, "unknown scheme %q in %s directive (want pmem, bbb or eadr)", u.Value, envprog.SchemeDirective)
	}
	// Summaries are index sets that only grow across rescans, so recursive
	// components settle without a round cap.
	envprog.Summarizer[*summary]{Scan: a.scanSummary, Equal: (*summary).equal}.Run(a.Prog, a.summaries)
	for _, f := range a.Files {
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
	*envprog.Prog
	pass      *vet.Pass
	summaries map[*types.Func]*summary
}

// relaxedContext decides whether decl's code targets a battery-backed
// scheme (BBB/eADR), where the hardware persists stores in program order
// and barrier discipline is unnecessary.
func (a *analysis) relaxedContext(f *ast.File, decl ast.Decl) bool {
	if s, ok := a.Schemes[f]; ok {
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

// --- call summaries ---

// summary is a helper function's flow-insensitive persistency effect,
// expressed over parameter and result indices so call sites can map it
// onto their arguments.
type summary struct {
	envprog.Shape[bool]
	dirtyParams  map[int]bool
	flushParams  map[int]bool
	barrierParam map[int]bool
	fences       bool
}

func (s *summary) equal(o *summary) bool {
	return o != nil && s.fences == o.fences &&
		maps.Equal(s.dirtyParams, o.dirtyParams) &&
		maps.Equal(s.flushParams, o.flushParams) &&
		maps.Equal(s.barrierParam, o.barrierParam) &&
		maps.Equal(s.DirtyResults, o.DirtyResults)
}

func (a *analysis) shape(fn *types.Func) *envprog.Shape[bool] {
	if s := a.summaries[fn]; s != nil {
		return &s.Shape
	}
	return nil
}

// bindDirtyResults calls f on each left-hand side that receives a dirty
// result of a summarized helper (`n := writeNode(e, ...)`).
func (a *analysis) bindDirtyResults(as *ast.AssignStmt, f func(lhs ast.Expr, pos token.Pos)) {
	envprog.BindDirtyResults(a.Prog, as, a.shape, func(lhs ast.Expr, call *ast.CallExpr, _ bool) {
		f(lhs, call.Pos())
	})
}

// scanSummary computes one function's effect sets by a flow-insensitive
// walk of its body (nested function literals excluded — they run later).
func (a *analysis) scanSummary(fn envprog.Func) *summary {
	eff := &effects{dirty: map[*envprog.Class]bool{}, flush: map[*envprog.Class]bool{}, barrier: map[*envprog.Class]bool{}}
	envprog.WalkSkippingFuncLits(fn.Decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			a.callEffects(n, eff)
		case *ast.AssignStmt:
			a.bindDirtyResults(n, func(lhs ast.Expr, pos token.Pos) {
				eff.dirty[a.LocOf(lhs)] = true
			})
		}
	})

	s := &summary{
		Shape:        envprog.ShapeOf[bool](fn.Obj),
		dirtyParams:  map[int]bool{},
		flushParams:  map[int]bool{},
		barrierParam: map[int]bool{},
		fences:       eff.fences,
	}
	params := fn.Obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		c := a.ClassOf(params.At(i)).Find()
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
	envprog.MarkDirtyResults(a.Prog, &s.Shape, fn.Decl.Body, eff.dirty, func(_, _ bool) bool { return true })
	return s
}

// effects accumulates a summary scan's class-level facts.
type effects struct {
	dirty, flush, barrier map[*envprog.Class]bool
	fences                bool
}

// callEffects folds one call's persistency effect into eff.
func (a *analysis) callEffects(call *ast.CallExpr, eff *effects) {
	op, ok := a.resolveCall(call)
	if !ok {
		return
	}
	for _, e := range op.dirtyAddrs {
		eff.dirty[a.LocOf(e)] = true
	}
	for _, e := range op.flushAddrs {
		eff.flush[a.LocOf(e)] = true
	}
	for _, e := range op.barrierAddrs {
		eff.barrier[a.LocOf(e)] = true
	}
	if op.fences {
		eff.fences = true
	}
}

// --- call resolution ---

// callOp is the normalized persistency effect of one call expression.
type callOp struct {
	dirtyAddrs   []ast.Expr // locations stored to
	flushAddrs   []ast.Expr // locations written back
	barrierAddrs []ast.Expr // locations flushed+fenced together
	fences       bool       // completes pending flushes
	// publish is the address stored by a direct store or CAS — the
	// expression a commit-store directive applies to (nil otherwise).
	publish ast.Expr
	// value is the stored value expression, for dependee inference.
	value ast.Expr
}

// resolveCall classifies one call: a decoded Env call or a same-package
// summarized helper. The pds persistence-tagged primitives count as
// intrinsics like Store64: that lets the commit-store contract attach to
// CASP/StoreP publishes and keeps cross-package callers visible, which is
// how persistlint verifies the library's emitted flush discipline with
// zero suppressions.
func (a *analysis) resolveCall(call *ast.CallExpr) (callOp, bool) {
	var op callOp
	if c, ok := a.DecodeEnvCall(call); ok {
		switch c.Op {
		case envprog.Store, envprog.CAS, envprog.StoreP, envprog.CASP:
			op.dirtyAddrs = c.Addrs
			if len(c.Addrs) > 0 {
				op.publish = c.Addrs[0]
			}
			op.value = c.Value
			if c.Op == envprog.StoreP || c.Op == envprog.CASP {
				op.flushAddrs = c.Addrs
				op.fences = c.Op == envprog.CASP
			}
		case envprog.Flush, envprog.FlushP:
			op.flushAddrs = c.Addrs
		case envprog.Barrier:
			op.barrierAddrs = c.Addrs
			op.fences = true
		case envprog.Fence, envprog.DrainP:
			op.fences = true
		case envprog.Load, envprog.LoadP:
			// a pure read
		default:
			return op, false
		}
		return op, true
	}

	fn := a.Callee(call)
	if fn == nil {
		return op, false
	}
	s := a.summaries[fn]
	if s == nil {
		return op, false
	}
	for i := range s.dirtyParams {
		op.dirtyAddrs = append(op.dirtyAddrs, s.Args(call, i)...)
	}
	for i := range s.flushParams {
		op.flushAddrs = append(op.flushAddrs, s.Args(call, i)...)
	}
	for i := range s.barrierParam {
		op.barrierAddrs = append(op.barrierAddrs, s.Args(call, i)...)
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
	locs    map[*envprog.Class]locInfo
}

// unit analyzes one function body. It implements dataflow.Problem twice
// over: a silent fixpoint pass, then a reporting replay over the final
// block-entry facts.
type unit struct {
	a             *analysis
	relaxed       bool
	everDirty     map[*envprog.Class]bool
	names         map[string]map[*envprog.Class]bool
	hasBarrierOps bool
	scanning      bool // pre-scan mode: collect everDirty, no facts
	report        bool // replay mode: emit diagnostics
}

func (u *unit) Entry() fact  { return fact{reached: true, locs: map[*envprog.Class]locInfo{}} }
func (u *unit) Bottom() fact { return fact{} }

func (u *unit) Clone(f fact) fact {
	locs := make(map[*envprog.Class]locInfo, len(f.locs))
	for c, li := range f.locs {
		locs[c] = li
	}
	return fact{reached: f.reached, locs: locs}
}

func (u *unit) Equal(a, b fact) bool {
	return a.reached == b.reached && maps.Equal(a.locs, b.locs)
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
			u.dirty(&f, u.a.LocOf(lhs), pos)
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
		u.dirty(f, u.a.LocOf(e), call.Pos())
	}
	for _, e := range op.flushAddrs {
		u.flush(f, u.a.LocOf(e), call)
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

func (u *unit) dirty(f *fact, c *envprog.Class, pos token.Pos) {
	if u.scanning {
		u.everDirty[c] = true
		return
	}
	f.locs[c] = locInfo{st: dirty, pos: pos}
}

func (u *unit) flush(f *fact, c *envprog.Class, call *ast.CallExpr) {
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
		u.a.pass.Reportf(call.Pos(), "redundant flush of %s: already %s on every path here", c.Name, li.st)
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
	classes := make([]*envprog.Class, 0, len(addrs))
	for _, e := range addrs {
		classes = append(classes, u.a.LocOf(e))
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
			names = append(names, c.Name)
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
	deps, ok := u.a.CommitDeps(call.Pos())
	if !ok || u.scanning || !u.report || u.relaxed {
		return
	}
	checked := map[*envprog.Class]bool{}
	check := func(c *envprog.Class, name string) {
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
		if v, isVar := u.a.Info.Uses[id].(*types.Var); isVar {
			if c := u.a.ClassOf(v).Find(); u.everDirty[c] {
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
		everDirty: map[*envprog.Class]bool{},
		names:     map[string]map[*envprog.Class]bool{},
	}
	// Pre-scan: which locations ever get dirtied here, does the function
	// barrier at all, and which names map to which classes.
	u.scanning = true
	var dummy fact
	envprog.WalkSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			u.apply(n, &dummy)
		case *ast.AssignStmt:
			a.bindDirtyResults(n, func(lhs ast.Expr, pos token.Pos) {
				u.everDirty[a.LocOf(lhs)] = true
			})
		case *ast.Ident:
			obj := a.Info.Uses[n]
			if obj == nil {
				obj = a.Info.Defs[n]
			}
			if v, ok := obj.(*types.Var); ok {
				c := a.ClassOf(v).Find()
				if u.names[n.Name] == nil {
					u.names[n.Name] = map[*envprog.Class]bool{}
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
	if relaxed || hasRecv || !a.ProgramShaped(ftype) {
		return
	}
	exit := in[g.Exit]
	if !exit.reached {
		return
	}
	type leak struct {
		c  *envprog.Class
		li locInfo
	}
	var leaks []leak
	for c, li := range exit.locs {
		leaks = append(leaks, leak{c, li})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].li.pos < leaks[j].li.pos })
	for _, l := range leaks {
		msg := fmt.Sprintf("store to %s is never made durable on some path to program exit (still %s)", l.c.Name, l.li.st)
		if !u.hasBarrierOps {
			msg += " — this program issues no barriers at all, so Options.NoBarriers is vacuous for it"
		}
		a.pass.Reportf(l.li.pos, "%s", msg)
	}
}
