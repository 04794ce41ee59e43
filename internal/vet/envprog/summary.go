package envprog

import (
	"go/ast"
	"go/types"
)

// Summarizer computes one analyzer's helper summaries bottom-up over the
// package call graph.
type Summarizer[S any] struct {
	// Scan computes fn's summary from the summaries already in the table.
	Scan func(fn Func) S
	// Equal reports whether a rescan changed nothing.
	Equal func(s, prev S) bool
	// Widen, when set, runs on every rescan of a recursive component
	// before the equality test and may jump s past prev to force
	// convergence.
	Widen func(round int, s, prev S, fn *types.Func)
	// MaxRounds caps the rescans of one recursive component; 0 rescans
	// until no summary changes (a finite, monotone lattice guarantees it).
	MaxRounds int
}

// Run fills sums with a summary for every function of p, callees before
// callers: the call graph is condensed into strongly connected components
// (Tarjan), which come out in reverse topological order. A function
// outside any cycle is scanned once, after all its callees. The functions
// of a recursive component start from the zero S (no summary yet) and are
// rescanned until no summary changes.
func (z Summarizer[S]) Run(p *Prog, sums map[*types.Func]S) {
	declOf := make(map[*types.Func]int, len(p.Funcs))
	for i, fn := range p.Funcs {
		declOf[fn.Obj] = i
	}
	callees := make([][]int, len(p.Funcs))
	for i, fn := range p.Funcs {
		seen := make(map[int]bool)
		WalkSkippingFuncLits(fn.Decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if j, ok := declOf[p.Callee(call)]; ok && !seen[j] {
				seen[j] = true
				callees[i] = append(callees[i], j)
			}
		})
	}
	for _, scc := range tarjan(callees) {
		cyclic := len(scc) > 1
		for _, j := range callees[scc[0]] {
			cyclic = cyclic || j == scc[0]
		}
		if !cyclic {
			fn := p.Funcs[scc[0]]
			sums[fn.Obj] = z.Scan(fn)
			continue
		}
		for round := 0; z.MaxRounds == 0 || round < z.MaxRounds; round++ {
			changed := false
			for _, i := range scc {
				fn := p.Funcs[i]
				s, prev := z.Scan(fn), sums[fn.Obj]
				if z.Widen != nil {
					z.Widen(round, s, prev, fn.Obj)
				}
				if !z.Equal(s, prev) {
					sums[fn.Obj] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// tarjan returns the strongly connected components of the graph over
// nodes 0..len(succs)-1 in callee-before-caller (reverse topological)
// order.
func tarjan(succs [][]int) [][]int {
	n := len(succs)
	index, low := make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var out [][]int
	next := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[v] {
			if index[w] < 0 {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for v := range succs {
		if index[v] < 0 {
			strongconnect(v)
		}
	}
	return out
}
