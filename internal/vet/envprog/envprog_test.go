package envprog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"

	"bbb/internal/vet"
)

const src = `package p

type Addr uint64

type Env interface {
	Load(a Addr, size int) uint64
	Store(a Addr, size int, v uint64)
	WriteBack(a Addr)
	Fence()
	PersistBarrier(addrs ...Addr)
}

func Store64(e Env, a Addr, v uint64) { e.Store(a, 8, v) }
func StoreP(e Env, a Addr, v uint64) { e.Store(a, 8, v); e.WriteBack(a) }

func top(e Env, a Addr)  { mid(e, a) }
func mid(e Env, a Addr)  { leaf(e, a) }
func leaf(e Env, a Addr) { Store64(e, a, 1) }

func even(e Env, a Addr, n int) { if n > 0 { odd(e, a, n-1) } }
func odd(e Env, a Addr, n int)  { even(e, a, n-1); e.Fence() }

func calls(e Env, a, b Addr) {
	e.Store(a, 8, 7)
	e.WriteBack(a)
	e.Fence()
	e.PersistBarrier(a, b)
	_ = e.Load(a, 8)
	Store64(e, b, 9)
	StoreP(e, a, 3)
	top(e, a)
}
`

func load(t *testing.T) *Prog {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return New(&vet.Package{ImportPath: "p", Files: []*ast.File{f}, Info: info}, fset)
}

func TestDecodeEnvCall(t *testing.T) {
	const notDecoded Op = 255
	p := load(t)
	var got []Op
	for _, fn := range p.Funcs {
		if fn.Obj.Name() != "calls" {
			continue
		}
		WalkSkippingFuncLits(fn.Decl.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				c, ok := p.DecodeEnvCall(call)
				if !ok {
					got = append(got, notDecoded)
					return
				}
				got = append(got, c.Op)
			}
		})
	}
	// top(e, a) is a plain helper: not decoded.
	want := []Op{Store, Flush, Fence, Barrier, Other, Store, StoreP, notDecoded}
	if !slices.Equal(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestSummarizerOrder pins the summary order: callees before callers
// whatever the declaration order, and a recursive component rescanned
// until its summaries stop changing.
func TestSummarizerOrder(t *testing.T) {
	p := load(t)
	declared := map[*types.Func]bool{}
	for _, fn := range p.Funcs {
		declared[fn.Obj] = true
	}
	var order []string
	sums := map[*types.Func]int{}
	Summarizer[int]{
		// A summary is the helper call depth below fn, capped at 3.
		Scan: func(fn Func) int {
			order = append(order, fn.Obj.Name())
			depth := 0
			WalkSkippingFuncLits(fn.Decl.Body, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok && declared[p.Callee(call)] {
					depth = max(depth, min(sums[p.Callee(call)]+1, 3))
				}
			})
			return depth
		},
		Equal: func(s, prev int) bool { return s == prev },
	}.Run(p, sums)

	pos := func(name string) int { return slices.Index(order, name) }
	if !(pos("leaf") < pos("mid") && pos("mid") < pos("top")) {
		t.Errorf("chain summarized out of order: %v", order)
	}
	for name, want := range map[string]int{"leaf": 1, "mid": 2, "top": 3, "even": 3, "odd": 3} {
		if got := sums[lookup(p, name)]; got != want {
			t.Errorf("summary of %s = %d, want %d", name, got, want)
		}
	}
}

func lookup(p *Prog, name string) *types.Func {
	for _, fn := range p.Funcs {
		if fn.Obj.Name() == name {
			return fn.Obj
		}
	}
	return nil
}
