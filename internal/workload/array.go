package workload

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// ArrayOp selects the array workload's operation (Table IV rows
// mutate[NC/C] and swap[NC/C]).
type ArrayOp int

// The two array operations of Table IV.
const (
	OpMutate ArrayOp = iota
	OpSwap
)

// Array is the Table IV array workload: random mutate or swap operations on
// a persistent element array. The NC ("non-conflicting") variant gives each
// thread a private partition; the C ("conflicting") variant lets every
// thread hit the whole array, producing inter-core block ping-pong and bbPB
// entry migration.
//
// Elements are tagged (tag byte, thread, sequence) so the recovery check
// can tell a validly persisted value from torn garbage. Swap atomicity is
// *not* promised — persist ordering is the paper's scope, not transactions
// — so the swap checker verifies value validity, not permutation-ness.
type Array struct {
	op       ArrayOp
	conflict bool
	elems    int
	base     memory.Addr
	threads  int
}

// NewArray builds an array workload; 8 elements share each cache line,
// exactly the layout that makes mutate/swap generate coalescable persists.
func NewArray(op ArrayOp, conflict bool) *Array {
	return &Array{op: op, conflict: conflict, elems: 1 << 15}
}

// Name implements Workload.
func (a *Array) Name() string {
	n := "mutate"
	if a.op == OpSwap {
		n = "swap"
	}
	if a.conflict {
		return n + "C"
	}
	return n + "NC"
}

// Description implements Workload.
func (a *Array) Description() string {
	verb := "modify"
	if a.op == OpSwap {
		verb = "swap"
	}
	mode := "partitioned"
	if a.conflict {
		mode = "conflicting"
	}
	return fmt.Sprintf("random %s in a persistent array (%s)", verb, mode)
}

// PaperPStores implements Workload (Table IV: 23.8%).
func (a *Array) PaperPStores() float64 { return 23.8 }

const arrayTag = uint64(0xA5) << 56

func encode(thread int, seq uint64) uint64 {
	return arrayTag | uint64(thread&0xFF)<<48 | (seq & 0xFFFF_FFFF_FFFF)
}

func initialVal(idx int) uint64 { return encode(0xFF, uint64(idx)) }

func validVal(v uint64) bool { return v>>56 == 0xA5 }

func (a *Array) elem(i int) memory.Addr { return a.base + memory.Addr(i*8) }

// Setup implements Workload: the array is pre-loaded with tagged initial
// values.
func (a *Array) Setup(mem *memory.Memory, arena *palloc.Arena, p Params) {
	a.threads = p.Threads
	a.base = arena.Alloc(uint64(a.elems) * 8)
	for i := 0; i < a.elems; i++ {
		mem.Poke64(a.elem(i), initialVal(i))
	}
}

// pick returns a random element index for thread t under the conflict mode.
func (a *Array) pick(t int, r interface{ Intn(int) int }) int {
	if a.conflict {
		return r.Intn(a.elems)
	}
	part := a.elems / a.threads
	return t*part + r.Intn(part)
}

// Programs implements Workload.
func (a *Array) Programs(p Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := rng(p, t)
			for i := 0; i < p.OpsPerThread; i++ {
				switch a.op {
				case OpMutate:
					idx := a.pick(t, r)
					cpu.Load64(e, a.elem(idx))
					cpu.Store64(e, a.elem(idx), encode(t, uint64(i)))
					barrier(e, p, a.elem(idx))
				case OpSwap:
					i1 := a.pick(t, r)
					i2 := a.pick(t, r)
					v1 := cpu.Load64(e, a.elem(i1))
					v2 := cpu.Load64(e, a.elem(i2))
					cpu.Store64(e, a.elem(i1), v2)
					cpu.Store64(e, a.elem(i2), v1)
					barrier(e, p, a.elem(i1), a.elem(i2))
				}
				volatileWork(e, t, a.volWork(), r)
			}
		}
	}
	return progs
}

// volWork targets Table IV's 23.8% P-stores (1-2 persisting stores/op).
func (a *Array) volWork() int {
	if a.op == OpSwap {
		return 6
	}
	return 3
}

// Check implements Workload: every element must hold a validly tagged value
// — either its initial value or one written by some thread; in NC mode a
// mutate value must come from the partition's owner. It walks one
// partition (thread t's elements lo..hi) at a time, so the owner is t.
func (a *Array) Check(mem *memory.Memory) error {
	owned := a.op == OpMutate && !a.conflict
	part := max(a.elems/a.threads, 1)
	p := a.base
	for t, lo := 0, 0; lo < a.elems; t, lo = t+1, lo+part {
		for i, hi := lo, min(lo+part, a.elems); i < hi; i, p = i+1, p+8 {
			v := mem.Peek64(p)
			if !validVal(v) {
				return fmt.Errorf("array %s: element %d holds untagged value %#x (torn persist)", a.Name(), i, v)
			}
			if writer := int(v >> 48 & 0xFF); owned && writer != 0xFF && writer != t {
				return fmt.Errorf("array %s: element %d written by thread %d outside its partition", a.Name(), i, writer)
			}
		}
	}
	return nil
}

var _ Workload = (*Array)(nil)
