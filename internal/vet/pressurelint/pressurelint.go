// Package pressurelint is an interprocedural, loop-aware persist-pressure
// analysis for the programs that run on the simulator: it computes, at
// every program point of a cpu.Env program, an upper bound on the number
// of simultaneously dirty persistence-domain lines, and emits per-workload
// battery-bound certificates (Certificate) that internal/energy can size a
// battery against and the conform harness gates against the runtime
// checkers.
//
// The abstraction is a dirty-set lattice over the union-find location
// classes of internal/vet/envprog, the front end persistlint shares: each
// class carries a persistency state (dirty or flushed; absent means
// durable), a line-count bound (the class's footprint: max constant line
// offset seen at a store, widened to the allocation size when offsets are
// dynamic), and the innermost loop whose iteration changes the class's
// identity (a fresh allocation per trip). The pressure at a point is the
// sum of line bounds of all non-durable classes.
//
// Two disciplines are evaluated per unit:
//
//   - strict: flushes, fences and barriers take effect (the PMEM
//     baseline). The peak bounds the at-risk set a crash loses.
//   - relaxed: nothing the program does clears a line (BBB/BEP persist
//     buffers drain on their own schedule, invisible to the program). The
//     peak bounds the program's demand on a persist buffer; Certificate
//     projection caps it at the buffer's entry count — the
//     ⊤-with-coalescing-cap widening.
//
// Loops: the per-iteration carried set is read off the back-edge fact of
// the settled fixpoint (internal/vet/cfg Loop metadata); classes whose
// identity varies with the loop multiply by the trip count when it is a
// compile-time constant (three-clause loops over constant bounds, ranges
// over arrays and constant ints) and widen to ⊤ with a reported finding
// otherwise. Because the carry is computed structurally after the
// fixpoint, the dataflow lattice stays finite and termination is
// unconditional.
//
// Helpers are handled by bottom-up context-insensitive summaries over the
// call graph (Tarjan SCCs): which parameters a callee dirties/flushes/
// clears and by how many lines, which results return dirty locations, the
// callee's own transient peak and leftover residual. Recursive SCCs that
// fail to converge within a few rounds widen their peaks to ⊤ — the
// shadow-paging btree's recursive path copy is correctly reported as
// unbounded. Summaries stop at the package boundary, so a call that passes
// the Env to another package's function widens to ⊤ with a finding naming
// the callee. A `//bbbvet:volatile` directive on a function marks its
// returned addresses as DRAM-side scratch, excluded from persist pressure.
//
// The analyzer itself only reports diagnostics for program-shaped units in
// files pinned to the strict discipline with `//bbbvet:scheme pmem` whose
// strict peak is unbounded; everything else is surfaced as certificates
// (`bbbvet -pressure-report`) and gated dynamically by
// internal/vet/pressurelint/conform (`make pressure-short`).
package pressurelint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"sort"

	"bbb/internal/vet"
	"bbb/internal/vet/envprog"
)

// Analyzer is the pressurelint pass.
var Analyzer = &vet.Analyzer{
	Name: "pressurelint",
	Doc: `	pressurelint: interprocedural persist-pressure bounds.
	Computes per-program upper bounds on simultaneously dirty
	persistence-domain lines (static battery-bound certificates); reports
	programs pinned to //bbbvet:scheme pmem whose pressure is statically
	unbounded.`,
	Run: run,
}

const (
	modeStrict  = iota // flush/fence/barrier take effect (PMEM discipline)
	modeRelaxed        // nothing the program does clears a line (BBB/BEP)
	nModes
)

func run(pass *vet.Pass) error {
	if envprog.Tooling(pass.Pkg) {
		return nil
	}
	a := newAnalysis(pass.Pkg, pass.Fset)
	a.run()
	for _, d := range a.diags {
		pass.Reportf(d.pos, "%s", d.msg)
	}
	return nil
}

// Certificates runs the analysis over pkgs and returns every program
// unit's battery-bound certificate, sorted by unit name then position.
// It is the entry point for `bbbvet -pressure-report` and the conform
// harness; no diagnostics are produced.
func Certificates(pkgs []*vet.Package, fset *token.FileSet) []Certificate {
	var out []Certificate
	for _, pkg := range pkgs {
		if envprog.Tooling(pkg) {
			continue
		}
		a := newAnalysis(pkg, fset)
		a.run()
		out = append(out, a.certs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Unit != out[j].Unit {
			return out[i].Unit < out[j].Unit
		}
		return out[i].Pos.Offset < out[j].Pos.Offset
	})
	return out
}

type diag struct {
	pos token.Pos
	msg string
}

// analysis is the per-package state.
type analysis struct {
	*envprog.Prog
	pkg *types.Package

	// Per-class footprint knowledge, keyed by union-find root.
	spans       map[*envprog.Class]int  // 1 + max constant line index stored
	dynOff      map[*envprog.Class]bool // a store used a non-constant offset
	allocLines  map[*envprog.Class]int  // ceil(Alloc(const)/LineSize)
	volatileCls map[*envprog.Class]bool // DRAM-side scratch: excluded from pressure

	summaries map[*types.Func]*summary

	certs []Certificate
	diags []diag
}

func newAnalysis(pkg *vet.Package, fset *token.FileSet) *analysis {
	return &analysis{
		Prog:        envprog.New(pkg, fset),
		pkg:         pkg.Types,
		spans:       make(map[*envprog.Class]int),
		dynOff:      make(map[*envprog.Class]bool),
		allocLines:  make(map[*envprog.Class]int),
		volatileCls: make(map[*envprog.Class]bool),
		summaries:   make(map[*types.Func]*summary),
	}
}

func (a *analysis) run() {
	a.footprintPass()
	a.computeSummaries()
	a.collectCertificates()
}

// --- class footprints: spans, allocation sizes, volatile roots ---

// footprintPass walks every body once (no summaries needed: only direct
// Env stores contribute spans) recording per-class line footprints,
// allocation sizes and DRAM-scratch roots.
func (a *analysis) footprintPass() {
	for _, f := range a.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, addr := range a.directStoreAddrs(n) {
					a.recordStore(addr)
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						a.recordAssign(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						a.recordAssign(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
}

// directStoreAddrs returns the address expressions a call stores through:
// only direct Env stores and CASes (and Store64) contribute spans.
func (a *analysis) directStoreAddrs(call *ast.CallExpr) []ast.Expr {
	if c, ok := a.DecodeEnvCall(call); ok && (c.Op == envprog.Store || c.Op == envprog.CAS) {
		return c.Addrs
	}
	return nil
}

// recordStore folds one store address into the class footprint maps.
func (a *analysis) recordStore(addr ast.Expr) {
	c := a.LocOf(addr)
	off, dyn := a.addrOffset(addr)
	span := 1
	if !dyn && off >= 0 {
		span = int(off/lineSize) + 1
	}
	if dyn || off < 0 {
		a.dynOff[c] = true
	}
	if span > a.spans[c] {
		a.spans[c] = span
	}
	if a.spans[c] == 0 {
		a.spans[c] = 1
	}
}

const lineSize = 64

// addrOffset sums the constant byte-offset terms of an address expression
// and reports whether a non-constant non-base term remains.
func (a *analysis) addrOffset(e ast.Expr) (off int64, dyn bool) {
	e = ast.Unparen(e)
	if be, ok := e.(*ast.BinaryExpr); ok && (be.Op == token.ADD || be.Op == token.SUB) {
		lo, ld := a.addrOffset(be.X)
		ro, rd := a.addrOffset(be.Y)
		if be.Op == token.SUB {
			ro = -ro
		}
		return lo + ro, ld || rd
	}
	if tv, ok := a.Info.Types[e]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return v, false
		}
		return 0, true
	}
	if ce, ok := e.(*ast.CallExpr); ok && len(ce.Args) == 1 {
		if tv, ok := a.Info.Types[ce.Fun]; ok && tv.IsType() {
			return a.addrOffset(ce.Args[0])
		}
	}
	// The base term itself (a variable, a shaping call, the key
	// expression) contributes no offset.
	if a.BaseObj(e) != nil {
		return 0, false
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr, *ast.IndexExpr:
		return 0, false // base-like: its identity is the class
	}
	return 0, true
}

// recordAssign notes allocation sizes (`x := arena.Alloc(constSize)`) and
// DRAM-scratch roots (`x := volatileScratchBase(t)` with the callee
// marked //bbbvet:volatile).
func (a *analysis) recordAssign(lhs, rhs ast.Expr) {
	dst := a.VarBase(lhs)
	if dst == nil {
		return
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := a.Callee(call)
	if fn == nil {
		return
	}
	if a.VolatileFuncs[fn] {
		a.volatileCls[dst.Find()] = true
		return
	}
	if fn.Name() == "Alloc" && len(call.Args) == 1 {
		if tv, ok := a.Info.Types[call.Args[0]]; ok && tv.Value != nil {
			if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && v > 0 {
				lines := int((v + lineSize - 1) / lineSize)
				if lines > a.allocLines[dst.Find()] {
					a.allocLines[dst.Find()] = lines
				}
			}
		}
	}
}

// classLines is the per-class line footprint: the constant-offset span,
// widened to the allocation size when dynamic offsets were seen (stores
// stay within the allocated object by construction).
func (a *analysis) classLines(c *envprog.Class) int {
	c = c.Find()
	n := a.spans[c]
	if n == 0 {
		n = 1
	}
	if a.dynOff[c] && a.allocLines[c] > n {
		n = a.allocLines[c]
	}
	return n
}

func (a *analysis) isVolatile(c *envprog.Class) bool { return a.volatileCls[c.Find()] }

// --- call resolution ---

// dirtyEff is one address a call dirties, with the callee-claimed line
// bound (for helper parameters; direct stores use the class footprint).
type dirtyEff struct {
	addr  ast.Expr
	lines Bound
}

// callOp is the normalized pressure effect of one call expression.
type callOp struct {
	dirty      []dirtyEff
	flush      []ast.Expr
	clear      []ast.Expr // barriered: durable after the call (strict mode)
	fences     bool
	barrierAll bool
	// Callee transients, per mode (zero for direct Env operations).
	calleePeak     [nModes]Bound
	calleeResidual [nModes]Bound
	calleeName     string
	// boundary holds the findings of calls, here or in the callee, that
	// pass the Env to another package (see resolveCall).
	boundary []string
}

// resolveCall classifies one call: a decoded Env call or a summarized
// same-package helper. The pds primitives are summarized like any other
// helper. Summaries stop at the package boundary, so a call that passes
// the Env to a function of another package may store without bound: its
// peak and residual are ⊤, with a finding naming the callee.
func (a *analysis) resolveCall(call *ast.CallExpr) (callOp, bool) {
	var op callOp
	if c, ok := a.DecodeEnvCall(call); ok {
		switch c.Op {
		case envprog.Store, envprog.CAS:
			if len(c.Addrs) > 0 {
				op.dirty = []dirtyEff{{addr: c.Addrs[0], lines: Fin(1)}}
			}
			return op, true
		case envprog.Flush:
			op.flush = c.Addrs
			return op, true
		case envprog.Barrier:
			op.clear = c.Addrs
			op.fences = true
			op.barrierAll = true
			return op, true
		case envprog.Fence:
			op.fences = true
			return op, true
		case envprog.Load:
			return op, true
		case envprog.Other:
			return op, false
		}
	}

	fn := a.Callee(call)
	if fn == nil {
		return op, false
	}
	if fn.Pkg() != nil && fn.Pkg() != a.pkg && a.PassesEnv(call) {
		for m := 0; m < nModes; m++ {
			op.calleePeak[m], op.calleeResidual[m] = Inf(), Inf()
		}
		op.boundary = []string{fmt.Sprintf("call to %s at %s passes the Env to another package, which no summary covers: pressure unbounded", fn.FullName(), a.Fset.Position(call.Pos()))}
		return op, true
	}
	s := a.summaries[fn]
	if s == nil || s.pure {
		return op, false
	}
	for i, lines := range s.dirtyParams {
		for _, e := range s.Args(call, i) {
			op.dirty = append(op.dirty, dirtyEff{addr: e, lines: lines})
		}
	}
	for i := range s.flushParams {
		op.flush = append(op.flush, s.Args(call, i)...)
	}
	for i := range s.clearParams {
		op.clear = append(op.clear, s.Args(call, i)...)
	}
	op.fences = s.fences || len(s.clearParams) > 0
	op.barrierAll = s.barrierAll
	op.calleePeak = s.peak
	op.calleeResidual = s.residual
	op.calleeName = fn.Name()
	op.boundary = s.boundary
	interesting := len(op.dirty)+len(op.flush)+len(op.clear) > 0 || op.fences
	for m := 0; m < nModes; m++ {
		if !op.calleePeak[m].IsZero() || !op.calleeResidual[m].IsZero() {
			interesting = true
		}
	}
	return op, interesting
}

func (a *analysis) shape(fn *types.Func) *envprog.Shape[Bound] {
	if s := a.summaries[fn]; s != nil {
		return &s.Shape
	}
	return nil
}

// bindDirtyResults calls f for each left-hand side receiving a dirty
// result of a summarized helper, with the callee's claimed line bound.
func (a *analysis) bindDirtyResults(as *ast.AssignStmt, f func(lhs ast.Expr, call *ast.CallExpr, lines Bound)) {
	envprog.BindDirtyResults(a.Prog, as, a.shape, f)
}

// --- summaries over the call graph ---

// summary is a helper's context-insensitive transfer over the dirty-set
// lattice: effects on parameters/results, plus its own transient peak and
// leftover residual per discipline.
type summary struct {
	envprog.Shape[Bound]

	dirtyParams map[int]Bound
	flushParams map[int]bool
	clearParams map[int]bool
	fences      bool
	barrierAll  bool
	pure        bool

	peak     [nModes]Bound
	residual [nModes]Bound
	witness  token.Pos // strict-mode peak point (not part of equality)
	notes    []string
	boundary []string // the notes that cross the package boundary
}

func (s *summary) equal(o *summary) bool {
	return o != nil && s.fences == o.fences && s.barrierAll == o.barrierAll &&
		s.pure == o.pure && s.peak == o.peak && s.residual == o.residual &&
		maps.Equal(s.dirtyParams, o.dirtyParams) &&
		maps.Equal(s.DirtyResults, o.DirtyResults) &&
		maps.Equal(s.flushParams, o.flushParams) &&
		maps.Equal(s.clearParams, o.clearParams) &&
		len(s.notes) == len(o.notes)
}

// computeSummaries computes summaries bottom-up over the call graph's
// strongly connected components (envprog.Summarizer): singleton
// components in one scan, cyclic components iterated with widening —
// numeric fields still growing after a few rounds go to ⊤ (the sound
// answer for recursion whose pressure depends on input depth).
func (a *analysis) computeSummaries() {
	envprog.Summarizer[*summary]{
		Scan:      a.scanFunction,
		Equal:     (*summary).equal,
		Widen:     widenGrowing,
		MaxRounds: 8,
	}.Run(a.Prog, a.summaries)
}

// widenGrowing sends numeric fields of a cyclic component's summary still
// growing after a few rounds to ⊤, recording the recursion finding.
func widenGrowing(round int, s, prev *summary, fn *types.Func) {
	const widenAfter = 3
	if round < widenAfter {
		return
	}
	widened := false
	widen := func(b *Bound, p Bound) {
		if p.Less(*b) {
			*b = Inf()
			widened = true
		}
	}
	for m := 0; m < nModes; m++ {
		widen(&s.peak[m], prev.peak[m])
		widen(&s.residual[m], prev.residual[m])
	}
	for i, b := range s.DirtyResults {
		if p, ok := prev.DirtyResults[i]; !ok || p.Less(b) {
			s.DirtyResults[i] = Inf()
			widened = true
		}
	}
	if widened {
		s.notes = appendNote(s.notes, fmt.Sprintf("recursive helper %s: pressure depends on recursion depth, widened to unbounded", fn.Name()))
	}
}

func appendNote(notes []string, n string) []string {
	for _, have := range notes {
		if have == n {
			return notes
		}
	}
	return append(notes, n)
}

// scanFunction computes one function's summary: a flow-insensitive effect
// walk for the parameter/result sets, plus the flow-sensitive unit
// analysis for peaks and residuals.
func (a *analysis) scanFunction(fn envprog.Func) *summary {
	s := &summary{
		Shape:       envprog.ShapeOf[Bound](fn.Obj),
		dirtyParams: map[int]Bound{},
		flushParams: map[int]bool{},
		clearParams: map[int]bool{},
	}
	if a.VolatileFuncs[fn.Obj] {
		s.pure = true
		return s
	}

	body := fn.Decl.Body
	dirty := map[*envprog.Class]Bound{}
	flush := map[*envprog.Class]bool{}
	clear := map[*envprog.Class]bool{}
	envprog.WalkSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			op, ok := a.resolveCall(n)
			if !ok {
				return
			}
			for _, de := range op.dirty {
				c := a.LocOf(de.addr)
				if a.isVolatile(c) {
					continue
				}
				lines := de.lines.Max(Fin(a.classLines(c)))
				dirty[c] = dirty[c].Max(lines)
			}
			for _, e := range op.flush {
				flush[a.LocOf(e)] = true
			}
			for _, e := range op.clear {
				clear[a.LocOf(e)] = true
			}
			if op.fences {
				s.fences = true
			}
			if op.barrierAll {
				s.barrierAll = true
			}
		case *ast.AssignStmt:
			a.bindDirtyResults(n, func(lhs ast.Expr, call *ast.CallExpr, lines Bound) {
				c := a.LocOf(lhs)
				dirty[c] = dirty[c].Max(lines)
			})
		}
	})
	params := fn.Obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		c := a.ClassOf(params.At(i)).Find()
		if lines, ok := dirty[c]; ok {
			s.dirtyParams[i] = lines
		}
		if flush[c] {
			s.flushParams[i] = true
		}
		if clear[c] {
			s.clearParams[i] = true
		}
	}
	envprog.MarkDirtyResults(a.Prog, &s.Shape, body, dirty, Bound.Max)

	ur := a.analyzeBody(body, fn.Decl.Type, fn.Decl.Recv)
	s.peak = ur.peak
	s.residual = ur.residual
	s.witness = ur.witness
	s.notes = ur.notes
	s.boundary = ur.boundary
	return s
}
