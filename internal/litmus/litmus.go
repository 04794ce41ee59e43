// Package litmus is the persistency litmus-test tier: a small DSL for
// multi-threaded programs over named persistent variables, plus a
// deterministic corpus (corpus.go). Every Test is read two ways —
//
//   - executed: workload.go interprets each thread op by op as cpu.Env
//     calls on the simulated machine (a workload.Workload), so
//     internal/crashmc can enumerate the operationally reachable
//     post-crash states; and
//   - symbolically: internal/axiomatic enumerates the Test's
//     store/flush/fence events under the Px86-TSO persistency axioms to
//     compute the declaratively *allowed* post-crash states.
//
// The conformance driver (internal/litmus/conform) gates operational ⊆
// allowed for every test × scheme, which turns the crash-image model
// checker from a per-scheme expectation table into a conformance suite
// against the "Taming x86-TSO Persistency" model (PAPERS.md).
//
// Every variable lives on its own cache line and starts at zero; a
// post-crash outcome is the durable value of each variable. Loads carry no
// persistency semantics — they are in the corpus only so the classic
// shapes (SB, MP, LB) run the machine the way their namesakes do.
package litmus

import "fmt"

// OpKind is one litmus instruction kind.
type OpKind uint8

const (
	// OpStore writes Val to Var (a persisting 8-byte store).
	OpStore OpKind = iota
	// OpLoad reads Var; persistency-irrelevant, kept for shape fidelity.
	OpLoad
	// OpFlush writes Var's line back (clwb under PMEM; no-op elsewhere).
	OpFlush
	// OpFence orders earlier flushed lines before later stores (sfence
	// under PMEM, epoch boundary under BEP, no-op under the batteries).
	OpFence
	// OpCAS atomically writes Val to Var iff Var currently holds Old
	// (lock cmpxchg). A failed CAS writes nothing — its store event is
	// conditional on the memory order, which is the whole point of the
	// cas corpus shapes. Like the hardware instruction, a CAS drains the
	// store buffer but is NOT a persist fence: it neither flushes its
	// line nor orders earlier flushes.
	OpCAS
)

func (k OpKind) String() string {
	switch k {
	case OpStore:
		return "store"
	case OpLoad:
		return "load"
	case OpFlush:
		return "flush"
	case OpFence:
		return "fence"
	case OpCAS:
		return "cas"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one litmus instruction. Var indexes Test.Vars (unused for OpFence).
type Op struct {
	Kind OpKind
	Var  int
	Val  uint64 // OpStore and OpCAS: the (new) value written
	Old  uint64 // OpCAS only: the expected value
}

// St, Ld, Fl, Fn and Cs build ops; the corpus reads like the litmus
// literature.
func St(v int, val uint64) Op      { return Op{Kind: OpStore, Var: v, Val: val} }
func Ld(v int) Op                  { return Op{Kind: OpLoad, Var: v} }
func Fl(v int) Op                  { return Op{Kind: OpFlush, Var: v} }
func Fn() Op                       { return Op{Kind: OpFence, Var: -1} }
func Cs(v int, old, new uint64) Op { return Op{Kind: OpCAS, Var: v, Val: new, Old: old} }

// Test is one litmus program: Threads[t] runs on core t, all variables
// start at zero, and the question a persistency model answers is which
// variable valuations a crash may leave durable.
type Test struct {
	Name string
	Doc  string
	// Vars names the persistent variables; index = variable id.
	Vars    []string
	Threads [][]Op
}

// Store is one store event of the symbolic form.
type Store struct {
	// ID is the global event id: thread-major, program order within a
	// thread — the index into Stores().
	ID     int
	Thread int
	// Pos is the op's index within its thread.
	Pos int
	Var int
	Val uint64
	// Epoch counts the fences program-order-before this store in its
	// thread (the BEP epoch the store lands in). A CAS does not open an
	// epoch — it is not a persist fence.
	Epoch int
	// CAS marks a conditional store: it writes Val only when the var
	// holds Old at its point in the memory order. The axiomatic
	// enumerator replays values along each interleaving to decide.
	CAS bool
	Old uint64
}

// Stores lists the test's store events in (thread, program-order) order.
func (t *Test) Stores() []Store {
	var out []Store
	for th, ops := range t.Threads {
		epoch := 0
		for pos, op := range ops {
			switch op.Kind {
			case OpFence:
				epoch++
			case OpStore, OpCAS:
				out = append(out, Store{
					ID: len(out), Thread: th, Pos: pos,
					Var: op.Var, Val: op.Val, Epoch: epoch,
					CAS: op.Kind == OpCAS, Old: op.Old,
				})
			}
		}
	}
	return out
}

// OrderedBefore reports whether store a must persist before store b under
// the relaxed Px86 axioms: both on one thread, with a flush of a's line
// and then a fence between them in program order (clwb x; sfence). This
// is the durably-ordered-before relation the axiomatic Relaxed model
// closes persist sets under.
func (t *Test) OrderedBefore(a, b Store) bool {
	if a.Thread != b.Thread || a.Pos >= b.Pos {
		return false
	}
	ops := t.Threads[a.Thread]
	for f := a.Pos + 1; f < b.Pos; f++ {
		if ops[f].Kind != OpFlush || ops[f].Var != a.Var {
			continue
		}
		for n := f + 1; n < b.Pos; n++ {
			if ops[n].Kind == OpFence {
				return true
			}
		}
	}
	return false
}

// WrittenVals returns every value the test may store to var v, in
// first-store order. A CAS contributes its new value whether or not any
// execution lets it succeed — the set is a superset of the writable
// values, which is the right direction for the recovery checker's
// accept-list (the axiomatic layer answers the exact question).
// Workload.Check accepts only these (or the zero init) as durable values.
func (t *Test) WrittenVals(v int) []uint64 {
	var out []uint64
	for _, s := range t.Stores() {
		if s.Var != v {
			continue
		}
		dup := false
		for _, x := range out {
			if x == s.Val {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s.Val)
		}
	}
	return out
}

// Validate rejects malformed tests (bad var indices, stores of zero —
// indistinguishable from the init value — or empty threads), so the
// generator and any hand-written test fail loudly at build time.
func (t *Test) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("litmus: test with empty name")
	}
	if len(t.Threads) == 0 {
		return fmt.Errorf("litmus %s: no threads", t.Name)
	}
	for th, ops := range t.Threads {
		if len(ops) == 0 {
			return fmt.Errorf("litmus %s: thread %d is empty", t.Name, th)
		}
		for i, op := range ops {
			switch op.Kind {
			case OpFence:
				// Var unused.
			case OpCAS:
				if op.Val == op.Old {
					return fmt.Errorf("litmus %s: thread %d op %d CAS writes its own expectation %d (invisible)", t.Name, th, i, op.Val)
				}
				fallthrough
			case OpStore:
				if op.Val == 0 {
					return fmt.Errorf("litmus %s: thread %d op %d stores 0 (aliases the init value)", t.Name, th, i)
				}
				fallthrough
			case OpLoad, OpFlush:
				if op.Var < 0 || op.Var >= len(t.Vars) {
					return fmt.Errorf("litmus %s: thread %d op %d references var %d of %d", t.Name, th, i, op.Var, len(t.Vars))
				}
			default:
				return fmt.Errorf("litmus %s: thread %d op %d has unknown kind %d", t.Name, th, i, op.Kind)
			}
		}
	}
	return nil
}
