package litmus

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// Workload adapts one litmus test to the workload.Workload interface so
// the machine runner and the crash-image model checker can execute it
// like any Table IV benchmark. Its name is "litmus/<test>".
type Workload struct {
	test  *Test
	addrs []memory.Addr
}

var _ workload.Workload = (*Workload)(nil)

// NewWorkload wraps test t, which must validate.
func NewWorkload(t *Test) *Workload { return &Workload{test: t} }

func (w *Workload) Name() string        { return "litmus/" + w.test.Name }
func (w *Workload) Description() string { return w.test.Doc }

// PaperPStores is 0: litmus tests are not Table IV rows.
func (w *Workload) PaperPStores() float64 { return 0 }

// Setup gives each variable its own persistent cache line, zeroed.
func (w *Workload) Setup(mem *memory.Memory, arena *palloc.Arena, p workload.Params) {
	w.addrs = make([]memory.Addr, len(w.test.Vars))
	for i := range w.test.Vars {
		a := arena.Alloc(memory.LineSize)
		mem.Poke64(a, 0)
		w.addrs[i] = a
	}
}

// Programs returns one interpreter per thread of the test. The thread
// count is part of the test, so p.Threads must match it.
func (w *Workload) Programs(p workload.Params) []system.Program {
	if p.Threads != len(w.test.Threads) {
		panic(fmt.Sprintf("litmus %s: test has %d threads, params ask for %d", w.test.Name, len(w.test.Threads), p.Threads))
	}
	progs := make([]system.Program, len(w.test.Threads))
	for i, ops := range w.test.Threads {
		progs[i] = func(e cpu.Env) { w.exec(e, ops) }
	}
	return progs
}

// exec interprets one thread: each op is one cpu.Env call on its
// variable's line, an 8-byte access for stores, loads and CASes.
func (w *Workload) exec(e cpu.Env, ops []Op) {
	for _, op := range ops {
		switch op.Kind {
		case OpStore:
			e.Store(w.addrs[op.Var], 8, op.Val)
		case OpLoad:
			e.Load(w.addrs[op.Var], 8)
		case OpFlush:
			e.Flush(w.addrs[op.Var])
		case OpFence:
			e.Fence()
		case OpCAS:
			e.CompareAndSwap(w.addrs[op.Var], 8, op.Old, op.Val)
		}
	}
}

// Check accepts any durable image where each variable holds either its
// zero init or some value the test actually stores to it. Which
// combinations a scheme may legally expose is the axiomatic layer's
// question, not this recovery-shaped sanity check's.
func (w *Workload) Check(mem *memory.Memory) error {
	for i, name := range w.test.Vars {
		got := mem.Peek64(w.addrs[i])
		if got == 0 {
			continue
		}
		ok := false
		for _, v := range w.test.WrittenVals(i) {
			if v == got {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("litmus %s: var %s holds %d, which no store ever wrote", w.test.Name, name, got)
		}
	}
	return nil
}

// VarAddrs returns each variable's line address, in Test.Vars order.
// Valid after Setup.
func (w *Workload) VarAddrs() []memory.Addr { return w.addrs }

// ReadOutcome decodes a durable image into the per-variable outcome
// vector the axiomatic layer speaks.
func (w *Workload) ReadOutcome(mem *memory.Memory) []uint64 {
	out := make([]uint64, len(w.addrs))
	for i, a := range w.addrs {
		out[i] = mem.Peek64(a)
	}
	return out
}

// init publishes every corpus test under "litmus/<name>" so witness
// replay (workload.ByName) can rebuild litmus machines.
func init() {
	for _, t := range Corpus() {
		t := t
		workload.Register(func() workload.Workload { return NewWorkload(t) })
	}
}
