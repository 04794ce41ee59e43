// Package envprog is the front end persistlint and pressurelint share for
// the cpu.Env programs that run on the simulator: abstract memory
// locations (union-find alias classes over variables and address
// expressions), recognition of the Env interface and of program-shaped
// functions, one decoder for every persistency-relevant Env call, the
// //bbbvet: persistency directives, and the bottom-up order in which
// helper summaries are computed.
//
// Each analyzer keeps its own lattice, transfer functions, summary
// contents and diagnostics; this package only answers "which location
// does this expression name", "what does this call do to memory" and
// "in which order are helpers summarized".
package envprog

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bbb/internal/vet"
)

// Prog is one package's front-end state. Its alias classes are final once
// New returns, so class roots are stable for every analysis pass.
type Prog struct {
	Info  *types.Info
	Fset  *token.FileSet
	Files []*ast.File
	// Funcs lists the package's function declarations with a body and a
	// *types.Func, in file order.
	Funcs []Func
	Directives

	byObj map[types.Object]*Class
	byKey map[string]*Class
}

// Func is one declared function of the package.
type Func struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// New scans pkg's directives and runs the flow-insensitive alias pass.
func New(pkg *vet.Package, fset *token.FileSet) *Prog {
	p := &Prog{
		Info:  pkg.Info,
		Fset:  fset,
		Files: pkg.Files,
		byObj: make(map[types.Object]*Class),
		byKey: make(map[string]*Class),
	}
	p.scanDirectives()
	p.aliasPass()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					p.Funcs = append(p.Funcs, Func{Decl: fd, Obj: fn})
				}
			}
		}
	}
	return p
}

// Tooling reports whether pkg is the vet tooling itself, whose fixtures
// and tests manipulate Env-shaped ASTs; analyzing it would be
// self-referential noise.
func Tooling(pkg *vet.Package) bool {
	return strings.HasPrefix(pkg.ImportPath, "bbb/internal/vet")
}

// --- abstract locations (union-find) ---

// Class is one abstract location: a union-find node whose root represents
// every variable and address expression known to name the same memory.
type Class struct {
	parent *Class
	Name   string // display name (first name registered)
}

// Find returns c's root.
func (c *Class) Find() *Class {
	for c.parent != nil {
		if c.parent.parent != nil {
			c.parent = c.parent.parent // path halving
		}
		c = c.parent
	}
	return c
}

func union(a, b *Class) {
	ra, rb := a.Find(), b.Find()
	if ra != rb {
		rb.parent = ra
	}
}

// ClassOf interns the class of a variable object.
func (p *Prog) ClassOf(obj types.Object) *Class {
	if c, ok := p.byObj[obj]; ok {
		return c.Find()
	}
	c := &Class{Name: obj.Name()}
	p.byObj[obj] = c
	return c
}

// keyClass interns the class of a non-variable address expression by its
// normalized source text, so two occurrences of `a.elem(idx)` agree.
func (p *Prog) keyClass(e ast.Expr) *Class {
	key := types.ExprString(e)
	if c, ok := p.byKey[key]; ok {
		return c.Find()
	}
	c := &Class{Name: key}
	p.byKey[key] = c
	return c
}

// BaseObj resolves an address expression to the variable it is rooted in:
// `node+offNext` and `memory.LineAddr(ptrCell)` resolve to node/ptrCell.
// Returns nil when no variable root exists.
func (p *Prog) BaseObj(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if obj == nil {
			obj = p.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			if o := p.BaseObj(e.X); o != nil {
				return o
			}
			return p.BaseObj(e.Y)
		}
	case *ast.CallExpr:
		if len(e.Args) != 1 {
			return nil
		}
		if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() {
			return p.BaseObj(e.Args[0]) // conversion: memory.Addr(x)
		}
		// Address-shaping helpers like memory.LineAddr(ptrCell): one
		// argument, same type in and out.
		argT, resT := p.TypeOf(e.Args[0]), p.TypeOf(e)
		if argT != nil && resT != nil && types.Identical(argT, resT) {
			return p.BaseObj(e.Args[0])
		}
	}
	return nil
}

// VarBase is the class of e's variable root, or nil.
func (p *Prog) VarBase(e ast.Expr) *Class {
	if o := p.BaseObj(e); o != nil {
		return p.ClassOf(o)
	}
	return nil
}

// LocOf resolves an address expression to its abstract location, falling
// back to the normalized-text class when no variable roots it.
func (p *Prog) LocOf(e ast.Expr) *Class {
	if c := p.VarBase(e); c != nil {
		return c.Find()
	}
	return p.keyClass(e).Find()
}

// TypeOf is e's type, or nil when the checker recorded none.
func (p *Prog) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// aliasPass unions abstract locations flow-insensitively across the whole
// package: plain copies (`cur = node`), tuple copies, slice building
// (`append(addrs, s)`, `[]Addr{leaf}`) and range-over-slice values all
// name the same underlying memory as their source. Running this to
// completion before any dataflow keeps union-find roots stable.
func (p *Prog) aliasPass() {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						p.aliasAssign(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						p.aliasAssign(n.Names[i], n.Values[i])
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if dst := p.VarBase(n.Value); dst != nil {
						if src := p.VarBase(n.X); src != nil {
							union(dst, src)
						}
					}
				}
			}
			return true
		})
	}
}

func (p *Prog) aliasAssign(lhs, rhs ast.Expr) {
	dst := p.VarBase(lhs)
	if dst == nil {
		return
	}
	switch r := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if src := p.VarBase(r); src != nil {
			union(dst, src)
		}
	case *ast.CompositeLit:
		for _, elt := range r.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if src := p.VarBase(elt); src != nil {
				union(dst, src)
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range r.Args {
				if src := p.VarBase(arg); src != nil {
					union(dst, src)
				}
			}
		}
	}
}

// ReturnClasses lists the location classes a returned expression carries:
// the variable root of an ident/arithmetic expression, every element of a
// composite literal, every argument of an append.
func (p *Prog) ReturnClasses(e ast.Expr) []*Class {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		var out []*Class
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = append(out, p.ReturnClasses(elt)...)
		}
		return out
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			var out []*Class
			for _, arg := range e.Args {
				out = append(out, p.ReturnClasses(arg)...)
			}
			return out
		}
		if tv, ok := p.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return p.ReturnClasses(e.Args[0])
		}
	default:
		if c := p.VarBase(e); c != nil {
			return []*Class{c}
		}
	}
	return nil
}

// --- Env recognition ---

// isEnvType reports whether t is the simulator execution interface — any
// named (or aliased) type called Env, so the analyses work identically on
// cpu.Env, the public bbb.Env alias, and self-contained fixtures.
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

// ProgramShaped reports whether ftype is a simulator program: exactly one
// parameter, of Env type, and no results — the system.Program shape.
func (p *Prog) ProgramShaped(ftype *ast.FuncType) bool {
	if ftype.Results != nil && len(ftype.Results.List) > 0 {
		return false
	}
	if ftype.Params == nil || len(ftype.Params.List) != 1 {
		return false
	}
	param := ftype.Params.List[0]
	if len(param.Names) > 1 {
		return false
	}
	return isEnvType(p.TypeOf(param.Type))
}

// PassesEnv reports whether any of call's arguments is an Env.
func (p *Prog) PassesEnv(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isEnvType(p.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// Callee resolves a call's target *types.Func (nil for conversions,
// builtins, method values and indirect calls).
func (p *Prog) Callee(call *ast.CallExpr) *types.Func {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
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
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// WalkSkippingFuncLits visits every node of body except nested function
// literal bodies, which execute on their own schedule and are analyzed as
// separate units.
func WalkSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
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
