package envprog

import (
	"go/ast"
	"go/types"
)

// Op is the persistency kind of a decoded Env call.
type Op uint8

const (
	Other   Op = iota // an Env method with no persistency effect (Load, Alloc, ...)
	Store             // Env.Store, Store64
	CAS               // Env.CompareAndSwap
	Flush             // Env.WriteBack/Clwb/Flush/Persist: write a line back
	Fence             // Env.Fence/SFence/Drain: complete pending write-backs
	Barrier           // Env.PersistBarrier, PersistBarrier: flush the lines, then fence
	Load              // Load64: a plain read

	// The pds persistence-tagged primitives (internal/pds, after FliT):
	// package functions taking the Env first, like Store64.
	StoreP // store + write-back
	CASP   // CAS + write-back + fence
	FlushP // write-back
	DrainP // fence
	LoadP  // tagged load, lowered to a plain load
)

// Call is one decoded Env call.
type Call struct {
	Op Op
	// Addrs are the addressed locations: the line a store, CAS or flush
	// names (empty when the call omits it), or a barrier's list.
	Addrs []ast.Expr
	// Value is the stored value of a store or CAS (nil if absent).
	Value ast.Expr
}

// DecodeEnvCall decodes a direct Env method call, or a call to one of the
// Env conveniences (Store64, Load64, PersistBarrier) or the pds intrinsics
// in any package. ok is false for every other call, which analyzers
// resolve through their helper summaries; an Env method outside the
// persistency vocabulary decodes as Other.
func (p *Prog) DecodeEnvCall(call *ast.CallExpr) (c Call, ok bool) {
	args := call.Args
	arg := func(i int) []ast.Expr { return args[i : i+1 : i+1] }
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isEnvType(p.TypeOf(sel.X)) {
		switch sel.Sel.Name {
		case "Store":
			c.Op = Store
			if len(args) >= 1 {
				c.Addrs = arg(0)
			}
			if len(args) >= 3 {
				c.Value = args[2]
			}
		case "CompareAndSwap":
			c.Op = CAS
			if len(args) >= 1 {
				c.Addrs = arg(0)
			}
			if len(args) >= 4 {
				c.Value = args[3]
			}
		case "WriteBack", "Clwb", "Flush", "Persist":
			c.Op = Flush
			if len(args) >= 1 {
				c.Addrs = arg(0)
			}
		case "PersistBarrier":
			c.Op, c.Addrs = Barrier, args
		case "Fence", "SFence", "Drain":
			c.Op = Fence
		}
		return c, true
	}

	fn := p.Callee(call)
	if fn == nil {
		return c, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 || !isEnvType(sig.Params().At(0).Type()) {
		return c, false
	}
	switch name := fn.Name(); {
	case name == "Store64" && len(args) >= 2:
		c.Op, c.Addrs = Store, arg(1)
		if len(args) >= 3 {
			c.Value = args[2]
		}
	case name == "Load64":
		c.Op = Load
	// cpu.PersistBarrier is the non-allocating front door to
	// Env.PersistBarrier; the address list starts at argument 1.
	case name == "PersistBarrier":
		c.Op, c.Addrs = Barrier, args[1:]
	case name == "StoreP" && len(args) >= 3:
		c.Op, c.Addrs, c.Value = StoreP, arg(1), args[2]
	case name == "CASP" && len(args) >= 4:
		c.Op, c.Addrs, c.Value = CASP, arg(1), args[3]
	case name == "FlushP" && len(args) >= 2:
		c.Op, c.Addrs = FlushP, arg(1)
	case name == "DrainP":
		c.Op = DrainP
	case name == "LoadP":
		c.Op = LoadP
	default:
		return c, false
	}
	return c, true
}

// Shape is the part of a helper summary every analyzer shares: the
// callee's calling shape, to map parameter indices onto a call's
// arguments, and the results that return a location the helper dirtied,
// each with the analyzer's payload.
type Shape[R any] struct {
	NParams      int
	Variadic     bool
	NResults     int
	DirtyResults map[int]R
}

// ShapeOf is fn's calling shape with no dirty results yet.
func ShapeOf[R any](fn *types.Func) Shape[R] {
	sig := fn.Type().(*types.Signature)
	return Shape[R]{
		NParams:      sig.Params().Len(),
		Variadic:     sig.Variadic(),
		NResults:     sig.Results().Len(),
		DirtyResults: map[int]R{},
	}
}

// Args maps parameter i onto call's arguments, expanding the variadic
// tail (and a spread `xs...` argument).
func (s *Shape[R]) Args(call *ast.CallExpr, i int) []ast.Expr {
	if s.Variadic && i == s.NParams-1 {
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

// MarkDirtyResults fills s.DirtyResults from body's return statements: a
// result carrying a class dirty maps to gets that class's payload, joined
// across every class and return statement that reaches it.
func MarkDirtyResults[R any](p *Prog, s *Shape[R], body *ast.BlockStmt, dirty map[*Class]R, join func(a, b R) R) {
	WalkSkippingFuncLits(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for j, r := range ret.Results {
			if j >= s.NResults {
				break
			}
			for _, c := range p.ReturnClasses(r) {
				v, ok := dirty[c.Find()]
				if !ok {
					continue
				}
				if old, ok := s.DirtyResults[j]; ok {
					v = join(old, v)
				}
				s.DirtyResults[j] = v
			}
		}
	})
}

// BindDirtyResults calls f on each left-hand side of `lhs... := helper(...)`
// that receives one of the helper's dirty results, with its payload.
// shape returns the summary of a helper, or nil when it has none.
func BindDirtyResults[R any](p *Prog, as *ast.AssignStmt, shape func(*types.Func) *Shape[R], f func(lhs ast.Expr, call *ast.CallExpr, r R)) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := p.Callee(call)
	if fn == nil {
		return
	}
	s := shape(fn)
	if s == nil || len(s.DirtyResults) == 0 || len(as.Lhs) != s.NResults {
		return
	}
	for i := range as.Lhs {
		if r, ok := s.DirtyResults[i]; ok {
			f(as.Lhs[i], call, r)
		}
	}
}
