package pressurelint

// The per-function pressure unit: a forward dataflow over the dirty-set
// lattice (internal/vet/cfg + dataflow), run once per discipline, followed
// by the structural loop-carry pass that multiplies per-iteration carried
// lines by constant trip counts — or widens to ⊤ with a finding. Keeping
// the carry out of the transfer function keeps the lattice finite, so the
// fixpoint terminates unconditionally.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"sort"

	"bbb/internal/vet/cfg"
	"bbb/internal/vet/dataflow"
	"bbb/internal/vet/envprog"
)

// pstate is a non-durable line's drain progress under the strict
// discipline (relaxed mode never advances past pDirty).
type pstate uint8

const (
	pDirty   pstate = iota // in cache (or persist buffer), not written back
	pFlushed               // written back, not yet fenced durable
)

// ploc is one location class's abstract state.
type ploc struct {
	st    pstate
	lines Bound     // footprint of this class, in 64B lines
	pos   token.Pos // earliest store establishing the state
	vary  ast.Stmt  // innermost loop whose iteration renames the location
}

// pfact maps location classes to their states at a program point.
type pfact struct {
	reached bool
	locs    map[*envprog.Class]ploc
}

// unitCtx is the mode-independent syntactic context of one body: which
// loops enclose each call, which objects each loop reassigns, and the
// call sites whose callees leave residual dirty lines behind.
type unitCtx struct {
	encLoops   map[*ast.CallExpr][]ast.Stmt
	assignedIn map[ast.Stmt]map[types.Object]bool
	ops        map[*ast.CallExpr]callOp
	resolved   map[*ast.CallExpr]bool
	resid      []residSite
	anyTraffic bool
}

type residSite struct {
	loops []ast.Stmt
	resid [nModes]Bound
}

// unitResult is one body's pressure profile.
type unitResult struct {
	peak     [nModes]Bound
	residual [nModes]Bound
	witness  token.Pos // strict-mode peak point
	notes    []string
	boundary []string // the notes of calls that pass the Env out of the package
}

func isLoopStmt(n ast.Node) (ast.Stmt, bool) {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n, true
	case *ast.RangeStmt:
		return n, true
	}
	return nil, false
}

// scanUnit builds the syntactic context in one walk, tracking the loop
// stack via the Inspect push/pop protocol.
func (a *analysis) scanUnit(body *ast.BlockStmt) *unitCtx {
	ctx := &unitCtx{
		encLoops:   map[*ast.CallExpr][]ast.Stmt{},
		assignedIn: map[ast.Stmt]map[types.Object]bool{},
		ops:        map[*ast.CallExpr]callOp{},
		resolved:   map[*ast.CallExpr]bool{},
	}
	assigned := func(id *ast.Ident, stack []ast.Stmt) {
		obj := a.Info.Defs[id]
		if obj == nil {
			obj = a.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		for _, l := range stack {
			m := ctx.assignedIn[l]
			if m == nil {
				m = map[types.Object]bool{}
				ctx.assignedIn[l] = m
			}
			m[obj] = true
		}
	}

	var stack []ast.Stmt
	var path []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := path[len(path)-1]
			path = path[:len(path)-1]
			if _, ok := isLoopStmt(top); ok {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own unit
		}
		path = append(path, n)
		if l, ok := isLoopStmt(n); ok {
			stack = append(stack, l)
			if r, ok := n.(*ast.RangeStmt); ok {
				if id, ok := r.Key.(*ast.Ident); ok {
					assigned(id, stack)
				}
				if id, ok := r.Value.(*ast.Ident); ok {
					assigned(id, stack)
				}
			}
			return true
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					assigned(id, stack)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				assigned(id, stack)
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				assigned(id, stack)
			}
		case *ast.CallExpr:
			loops := append([]ast.Stmt(nil), stack...)
			ctx.encLoops[n] = loops
			op, ok := a.resolveCall(n)
			ctx.ops[n], ctx.resolved[n] = op, ok
			if ok {
				if len(op.dirty) > 0 {
					ctx.anyTraffic = true
				}
				var rs residSite
				interesting := false
				for m := 0; m < nModes; m++ {
					rs.resid[m] = op.calleeResidual[m]
					if !rs.resid[m].IsZero() {
						interesting = true
					}
					if !op.calleePeak[m].IsZero() {
						ctx.anyTraffic = true
					}
				}
				if interesting {
					rs.loops = loops
					ctx.resid = append(ctx.resid, rs)
					ctx.anyTraffic = true
				}
			}
		}
		return true
	})
	return ctx
}

// analyzeBody computes the pressure profile of one function body.
func (a *analysis) analyzeBody(body *ast.BlockStmt, ftype *ast.FuncType, recv *ast.FieldList) *unitResult {
	ctx := a.scanUnit(body)
	ur := &unitResult{}
	hasDirtyResults := false
	envprog.WalkSkippingFuncLits(body, func(n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok {
			a.bindDirtyResults(as, func(ast.Expr, *ast.CallExpr, Bound) { hasDirtyResults = true })
		}
	})
	if !ctx.anyTraffic && !hasDirtyResults {
		return ur // no persistency traffic at all
	}

	// Classes excluded from the residual: caller-owned parameters and the
	// receiver (their dirt is conveyed by dirtyParams) and returned
	// locations (conveyed by dirtyResults).
	exclude := map[*envprog.Class]bool{}
	collectField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := a.Info.Defs[name]; obj != nil {
					exclude[a.ClassOf(obj).Find()] = true
				}
			}
		}
	}
	collectField(ftype.Params)
	collectField(recv)
	envprog.WalkSkippingFuncLits(body, func(n ast.Node) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				for _, c := range a.ReturnClasses(r) {
					exclude[c.Find()] = true
				}
			}
		}
	})

	g := cfg.New(body)
	for mode := 0; mode < nModes; mode++ {
		u := &punit{a: a, mode: mode, ctx: ctx}
		in := dataflow.Forward[pfact](g, u)

		// Replay over the settled facts, measuring peaks and recording
		// each block's out-fact for the loop-carry pass.
		u.measuring = true
		out := make(map[*cfg.Block]pfact, len(g.Blocks))
		for _, b := range g.Blocks {
			f := u.Clone(in[b])
			if !f.reached {
				out[b] = f
				continue
			}
			for _, n := range b.Nodes {
				f = u.Transfer(n, f)
			}
			out[b] = f
		}
		u.measuring = false

		// Residual dirt accumulated from calls outside any loop.
		baseResid := Fin(0)
		for _, rs := range ctx.resid {
			if len(rs.loops) == 0 {
				baseResid = baseResid.Add(rs.resid[mode])
			}
		}
		carry := u.loopCarry(g, out)

		ur.peak[mode] = u.peak.Add(baseResid).Add(carry)
		exitLines := Fin(0)
		if exit := in[g.Exit]; exit.reached {
			for c, pl := range exit.locs {
				if !exclude[c.Find()] {
					exitLines = exitLines.Add(pl.lines)
				}
			}
		}
		ur.residual[mode] = exitLines.Add(baseResid).Add(carry)
		if mode == modeStrict {
			ur.witness = u.peakPos
		}
		for _, n := range u.notes {
			ur.notes = appendNote(ur.notes, n)
		}
		for _, n := range u.boundary {
			ur.boundary = appendNote(ur.boundary, n)
		}
	}
	return ur
}

// punit implements dataflow.Problem[pfact] for one discipline.
type punit struct {
	a    *analysis
	mode int
	ctx  *unitCtx

	measuring bool
	peak      Bound
	peakPos   token.Pos
	notes     []string
	boundary  []string
}

func (u *punit) Entry() pfact  { return pfact{reached: true, locs: map[*envprog.Class]ploc{}} }
func (u *punit) Bottom() pfact { return pfact{} }

func (u *punit) Clone(f pfact) pfact {
	locs := make(map[*envprog.Class]ploc, len(f.locs))
	for c, pl := range f.locs {
		locs[c] = pl
	}
	return pfact{reached: f.reached, locs: locs}
}

func (u *punit) Equal(a, b pfact) bool {
	return a.reached == b.reached && maps.Equal(a.locs, b.locs)
}

// Join is pointwise: the less-drained state wins, footprints max, earliest
// position, and the innermost-by-position varying loop. Each component is
// an idempotent semilattice operation, so block-entry facts only ascend a
// finite lattice and the worklist terminates.
func (u *punit) Join(a, b pfact) pfact {
	if !a.reached {
		return u.Clone(b)
	}
	if !b.reached {
		return u.Clone(a)
	}
	out := u.Clone(a)
	for c, bi := range b.locs {
		ai, ok := out.locs[c]
		if !ok {
			out.locs[c] = bi
			continue
		}
		m := ai
		if bi.st < m.st {
			m.st = bi.st
		}
		m.lines = m.lines.Max(bi.lines)
		if bi.pos < m.pos {
			m.pos = bi.pos
		}
		switch {
		case m.vary == nil:
			m.vary = bi.vary
		case bi.vary != nil && bi.vary.Pos() < m.vary.Pos():
			m.vary = bi.vary
		}
		out.locs[c] = m
	}
	return out
}

func (u *punit) Transfer(n ast.Node, f pfact) pfact {
	if !f.reached {
		return f
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		u.walk(n, &f)
		u.a.bindDirtyResults(n, func(lhs ast.Expr, call *ast.CallExpr, lines Bound) {
			c := u.a.LocOf(lhs)
			if u.a.isVolatile(c) {
				return
			}
			vary := innermost(u.ctx.encLoops[call])
			u.dirty(&f, c, lines, call.Pos(), vary)
			if u.measuring && lines.Unbounded {
				u.note(fmt.Sprintf("dirty result bound at %s is statically unbounded (recursive helper)", u.a.Fset.Position(call.Pos())))
			}
		})
	case *ast.RangeStmt:
		u.walk(n.X, &f)
	default:
		u.walk(n, &f)
	}
	return f
}

func (u *punit) walk(n ast.Node, f *pfact) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			u.apply(call, f)
		}
		return true
	})
}

func (u *punit) apply(call *ast.CallExpr, f *pfact) {
	op, ok := u.ctx.ops[call]
	if !ok {
		// A call discovered outside the scan walk (defensive): resolve now.
		op, ok = u.a.resolveCall(call)
		if !ok {
			return
		}
	} else if !u.ctx.resolved[call] {
		return
	}
	for _, de := range op.dirty {
		c := u.a.LocOf(de.addr)
		if u.a.isVolatile(c) {
			continue
		}
		lines := de.lines.Max(Fin(u.a.classLines(c)))
		u.dirty(f, c, lines, call.Pos(), u.varyFor(call, de.addr))
	}
	if u.mode == modeStrict {
		for _, e := range op.flush {
			c := u.a.LocOf(e)
			if pl, ok := f.locs[c]; ok && pl.st == pDirty {
				pl.st = pFlushed
				f.locs[c] = pl
			}
		}
		if op.barrierAll || len(op.clear) > 0 {
			for _, e := range op.clear {
				delete(f.locs, u.a.LocOf(e))
			}
			u.drain(f)
		} else if op.fences {
			u.drain(f)
		}
	}
	if u.measuring {
		u.bump(u.linesOf(f).Add(op.calleePeak[u.mode]), call.Pos())
		switch {
		case len(op.boundary) > 0:
			for _, n := range op.boundary {
				u.note(n)
				u.boundary = appendNote(u.boundary, n)
			}
		case op.calleePeak[u.mode].Unbounded || op.calleeResidual[u.mode].Unbounded:
			u.note(fmt.Sprintf("call to %s at %s: callee persist pressure statically unbounded (recursive helper)", op.calleeName, u.a.Fset.Position(call.Pos())))
		}
	}
}

// drain completes written-back lines (the fence/barrier semantics: a
// drain waits out the WPQ; dirty unflushed lines are untouched).
func (u *punit) drain(f *pfact) {
	for c, pl := range f.locs {
		if pl.st == pFlushed {
			delete(f.locs, c)
		}
	}
}

func (u *punit) dirty(f *pfact, c *envprog.Class, lines Bound, pos token.Pos, vary ast.Stmt) {
	if old, ok := f.locs[c]; ok {
		lines = lines.Max(old.lines)
		if old.pos < pos {
			pos = old.pos
		}
	}
	f.locs[c] = ploc{st: pDirty, lines: lines, pos: pos, vary: vary}
	if u.measuring {
		u.bump(u.linesOf(f), pos)
	}
}

func (u *punit) linesOf(f *pfact) Bound {
	total := Fin(0)
	for _, pl := range f.locs {
		total = total.Add(pl.lines)
	}
	return total
}

func (u *punit) bump(b Bound, pos token.Pos) {
	if u.peak.Less(b) {
		u.peak = b
		u.peakPos = pos
	}
}

func (u *punit) note(n string) {
	u.notes = appendNote(u.notes, n)
}

// varyFor decides whether the location a store addresses is renamed by an
// enclosing loop's iteration: a var-based address varies with the
// innermost loop reassigning its base variable (a fresh allocation per
// trip); a key-based address (no resolvable base) varies with the
// innermost loop reassigning any variable the address expression reads.
// Dynamic offsets within one object never vary — they are span-capped by
// the class footprint instead.
func (u *punit) varyFor(call *ast.CallExpr, addr ast.Expr) ast.Stmt {
	loops := u.ctx.encLoops[call]
	if len(loops) == 0 {
		return nil
	}
	base := u.a.BaseObj(addr)
	for i := len(loops) - 1; i >= 0; i-- {
		asg := u.ctx.assignedIn[loops[i]]
		if len(asg) == 0 {
			continue
		}
		if base != nil {
			if asg[base] {
				return loops[i]
			}
			continue
		}
		if readsAssigned(u.a, addr, asg) {
			return loops[i]
		}
	}
	return nil
}

func readsAssigned(a *analysis, e ast.Expr, asg map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			obj := a.Info.Uses[id]
			if obj == nil {
				obj = a.Info.Defs[id]
			}
			if obj != nil && asg[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func innermost(loops []ast.Stmt) ast.Stmt {
	if len(loops) == 0 {
		return nil
	}
	return loops[len(loops)-1]
}

func within(outer ast.Stmt, inner ast.Stmt) bool {
	return inner.Pos() >= outer.Pos() && inner.End() <= outer.End()
}

// loopCarry turns the settled back-edge facts into the total extra
// pressure loops accumulate: per loop, the per-iteration carried set
// (classes still non-durable at the back edge whose identity the loop
// renames) plus callee residuals of calls directly in the loop plus the
// totals of nested loops, multiplied by the trip count — ⊤ with a finding
// when the trip is not a compile-time constant.
func (u *punit) loopCarry(g *cfg.Graph, out map[*cfg.Block]pfact) Bound {
	if len(g.Loops) == 0 {
		return Fin(0)
	}
	// Build the loop forest by syntactic nesting.
	parent := make(map[*cfg.Loop]*cfg.Loop)
	children := make(map[*cfg.Loop][]*cfg.Loop)
	for _, m := range g.Loops {
		var best *cfg.Loop
		for _, l := range g.Loops {
			if l == m || !within(l.Stmt, m.Stmt) {
				continue
			}
			if best == nil || within(best.Stmt, l.Stmt) {
				best = l
			}
		}
		parent[m] = best
		if best != nil {
			children[best] = append(children[best], m)
		}
	}

	var total func(l *cfg.Loop) Bound
	total = func(l *cfg.Loop) Bound {
		extra := Fin(0)
		bf := u.backFact(l, out)
		if bf.reached {
			classes := make([]*envprog.Class, 0, len(bf.locs))
			for c := range bf.locs {
				classes = append(classes, c)
			}
			sort.Slice(classes, func(i, j int) bool { return bf.locs[classes[i]].pos < bf.locs[classes[j]].pos })
			for _, c := range classes {
				pl := bf.locs[c]
				if pl.vary == nil || !within(l.Stmt, pl.vary) {
					continue
				}
				extra = extra.Add(pl.lines)
			}
		}
		for _, rs := range u.ctx.resid {
			if innermost(rs.loops) == l.Stmt {
				extra = extra.Add(rs.resid[u.mode])
			}
		}
		for _, ch := range children[l] {
			extra = extra.Add(total(ch))
		}
		trip, known := u.a.tripOf(l.Stmt)
		t := MulTrip(trip, known, extra)
		if t.Unbounded && !extra.Unbounded {
			u.note(fmt.Sprintf("loop at %s carries %s dirty line(s) per iteration with no constant trip count: pressure widened to unbounded", u.a.Fset.Position(l.Stmt.Pos()), extra))
		}
		return t
	}

	carry := Fin(0)
	for _, l := range g.Loops {
		if parent[l] == nil {
			carry = carry.Add(total(l))
		}
	}
	return carry
}

// backFact joins the dataflow facts flowing around a loop's back edge.
func (u *punit) backFact(l *cfg.Loop, out map[*cfg.Block]pfact) pfact {
	if l.Target != l.Head {
		return out[l.Target] // the post-statement block's out-fact
	}
	f := u.Bottom()
	for _, b := range l.BackSources() {
		f = u.Join(f, out[b])
	}
	return f
}

// --- trip counts ---

func (a *analysis) constInt(e ast.Expr) (int64, bool) {
	if tv, ok := a.Info.Types[e]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return v, true
		}
	}
	return 0, false
}

// tripOf returns a loop's trip count when it is a compile-time constant:
// `for i := c0; i < c1; i += s` (and <=, ++) over constants with the
// induction variable untouched in the body, a range over an array (or
// pointer to array), or a range over a constant int.
func (a *analysis) tripOf(s ast.Stmt) (int, bool) {
	switch s := s.(type) {
	case *ast.RangeStmt:
		if t := a.TypeOf(s.X); t != nil {
			u := t.Underlying()
			if p, ok := u.(*types.Pointer); ok {
				u = p.Elem().Underlying()
			}
			if arr, ok := u.(*types.Array); ok {
				return int(arr.Len()), true
			}
		}
		if v, ok := a.constInt(s.X); ok && v >= 0 {
			return int(v), true
		}
	case *ast.ForStmt:
		init, ok := s.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
			return 0, false
		}
		iv, ok := ast.Unparen(init.Lhs[0]).(*ast.Ident)
		if !ok {
			return 0, false
		}
		ivObj := a.Info.Defs[iv]
		if ivObj == nil {
			return 0, false
		}
		c0, ok := a.constInt(init.Rhs[0])
		if !ok {
			return 0, false
		}
		cond, ok := s.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
			return 0, false
		}
		cid, ok := ast.Unparen(cond.X).(*ast.Ident)
		if !ok || a.Info.Uses[cid] != ivObj {
			return 0, false
		}
		c1, ok := a.constInt(cond.Y)
		if !ok {
			return 0, false
		}
		step := int64(0)
		switch post := s.Post.(type) {
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(post.X).(*ast.Ident); ok && a.Info.Uses[id] == ivObj && post.Tok == token.INC {
				step = 1
			}
		case *ast.AssignStmt:
			if post.Tok == token.ADD_ASSIGN && len(post.Lhs) == 1 && len(post.Rhs) == 1 {
				if id, ok := ast.Unparen(post.Lhs[0]).(*ast.Ident); ok && a.Info.Uses[id] == ivObj {
					if v, ok := a.constInt(post.Rhs[0]); ok && v > 0 {
						step = v
					}
				}
			}
		}
		if step <= 0 {
			return 0, false
		}
		// The induction variable must not be reassigned in the body.
		touched := false
		ast.Inspect(s.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && a.Info.Uses[id] == ivObj {
						touched = true
					}
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && a.Info.Uses[id] == ivObj {
					touched = true
				}
			}
			return !touched
		})
		if touched {
			return 0, false
		}
		span := c1 - c0
		if cond.Op == token.LSS {
			span-- // last trip starts at the largest i with i < c1
		}
		if span < 0 {
			return 0, true
		}
		return int(span/step) + 1, true
	}
	return 0, false
}

// --- certificates and diagnostics ---

// collectCertificates extracts one Certificate per program unit: each
// program-shaped FuncLit inside a workload's Programs method (merged
// under the receiver type name — a workload's threads are instances of
// one bound) and each program-shaped top-level function that no other
// function of the package calls (a called one is a helper, bounded inside
// its callers).
func (a *analysis) collectCertificates() {
	merged := map[string]*Certificate{}
	var order []string

	add := func(name string, pos token.Pos, ur *unitResult) {
		c, ok := merged[name]
		if !ok {
			c = &Certificate{Unit: name, Pos: a.Fset.Position(pos)}
			merged[name] = c
			order = append(order, name)
		}
		if c.StrictLines.Less(ur.peak[modeStrict]) || c.Witness == "" {
			if ur.witness != token.NoPos {
				c.Witness = a.Fset.Position(ur.witness).String()
			}
		}
		c.StrictLines = c.StrictLines.Max(ur.peak[modeStrict])
		c.RelaxedLines = c.RelaxedLines.Max(ur.peak[modeRelaxed])
		for _, n := range ur.notes {
			c.Findings = appendNote(c.Findings, n)
		}
	}

	called := map[*types.Func]bool{}
	for _, fn := range a.Funcs {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := a.Callee(call); callee != fn.Obj {
					called[callee] = true
				}
			}
			return true
		})
	}

	for _, fn := range a.Funcs {
		fd := fn.Decl
		if fd.Recv == nil && !called[fn.Obj] && a.ProgramShaped(fd.Type) {
			s := a.summaries[fn.Obj]
			ur := &unitResult{peak: s.peak, residual: s.residual, witness: s.witness, notes: s.notes}
			add(fd.Name.Name, fd.Pos(), ur)
		}
		enclosing := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if a.ProgramShaped(lit.Type) {
				ur := a.analyzeBody(lit.Body, lit.Type, nil)
				add(a.litUnitName(enclosing, lit), lit.Pos(), ur)
			}
			return false // nested FuncLits inside a program are opaque
		})
	}

	sort.Strings(order)
	for _, name := range order {
		c := merged[name]
		sort.Strings(c.Findings)
		a.certs = append(a.certs, *c)
	}

	// Diagnostics only where the author pinned the strict discipline: a
	// statically unbounded at-risk set defeats the point of pmem-style
	// flush/fence code.
	for _, c := range a.certs {
		if !c.StrictLines.Unbounded {
			continue
		}
		pos := a.posOf(c.Pos)
		f := a.fileAt(pos)
		if f == nil || a.Schemes[f] != "pmem" {
			continue
		}
		why := "unbounded loop or recursive helper"
		if len(c.Findings) > 0 {
			why = c.Findings[0]
		}
		a.diags = append(a.diags, diag{
			pos: pos,
			msg: fmt.Sprintf("program %s: persist pressure is statically unbounded under the pmem discipline (%s)", c.Unit, why),
		})
	}
}

// litUnitName names a program FuncLit: the receiver type for the lits a
// workload's Programs method returns, else the enclosing function plus
// the line.
func (a *analysis) litUnitName(fd *ast.FuncDecl, lit *ast.FuncLit) string {
	if fd.Name.Name == "Programs" && fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		for {
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
				continue
			}
			break
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name
		}
	}
	return fmt.Sprintf("%s.func@%d", fd.Name.Name, a.Fset.Position(lit.Pos()).Line)
}

// posOf maps a token.Position back to a token.Pos in the fileset.
func (a *analysis) posOf(p token.Position) token.Pos {
	for _, f := range a.Files {
		tf := a.Fset.File(f.FileStart)
		if tf != nil && tf.Name() == p.Filename {
			return tf.Pos(p.Offset)
		}
	}
	return token.NoPos
}

func (a *analysis) fileAt(pos token.Pos) *ast.File {
	for _, f := range a.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
