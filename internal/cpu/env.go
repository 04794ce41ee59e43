package cpu

import (
	"errors"

	"bbb/internal/engine"
	"bbb/internal/memory"
)

// errAbandoned unwinds a workload program when the simulation is torn down
// (crash injection or end of run); it never escapes the package.
var errAbandoned = errors.New("cpu: simulation abandoned")

// Env is the interface a workload uses to execute against the simulated
// machine. All methods advance simulated time; the program is suspended
// until the machine completes the operation.
//
// PersistBarrier is the only persistency-aware call: under the PMEM
// baseline it costs a clwb per named line plus an sfence, while under BBB
// and eADR it is free — which is exactly the programmability argument of
// the paper's Figures 2 and 3.
type Env interface {
	// CoreID returns the executing core's number.
	CoreID() int
	// Load reads size bytes (1, 2, 4 or 8) at addr.
	Load(addr memory.Addr, size int) uint64
	// Store writes size bytes of val at addr.
	Store(addr memory.Addr, size int, val uint64)
	// PersistBarrier orders earlier persisting stores to the named lines
	// before any later store, using whatever the active scheme requires.
	PersistBarrier(addrs ...memory.Addr)
	// Flush writes the line holding addr back toward the persistence
	// domain without ordering anything: a clwb under the PMEM baseline,
	// a no-op everywhere else (BEP orders through epoch marks, and the
	// battery schemes persist at commit). Flush alone guarantees nothing —
	// only a following Fence does, exactly as clwb/sfence on real x86.
	Flush(addr memory.Addr)
	// Fence orders earlier flushed lines before any later store: an sfence
	// under the PMEM baseline, an epoch boundary under BEP, and a no-op
	// under the battery schemes. Flush+Fence is PersistBarrier split into
	// its two x86 halves, which the litmus harness (internal/litmus) needs
	// to express the Px86-TSO shapes that clwb-without-sfence allows.
	Fence()
	// Compute burns n core cycles of non-memory work.
	Compute(n engine.Cycle)
	// CompareAndSwap atomically replaces the size-byte value at addr with
	// new if it currently equals old, returning the previous value and
	// whether the swap happened. A successful swap on a persistent line is
	// a persisting store — on BBB it is durable the moment it commits.
	CompareAndSwap(addr memory.Addr, size int, old, new uint64) (prev uint64, swapped bool)
	// Now reads the core's cycle clock (rdtsc). It costs no simulated
	// time: service-level workloads use it to timestamp request arrival
	// and completion without perturbing the schedule they measure.
	Now() engine.Cycle
}

type env struct {
	core  *Core
	yield func(struct{}) bool
}

var _ Env = (*env)(nil)

// do executes r and returns the core's reply. The program's coroutine hands
// r to the core itself and then dispatches events (Engine.StepInline), in
// the order the loop would have, until its reply arrives, so a program that
// is the only one with work pending runs without a coroutine switch. It
// yields to the loop when the engine refuses: another program's resume is
// queued, the run stopped or reached its limit, or no event is pending.
// Only the reply resumes it (Core.reply); yield returns false only when
// Core.Stop tears the program down.
func (e *env) do(r request) uint64 {
	c := e.core
	c.driving = true
	c.handle(r)
	for !c.woken && c.eng.StepInline() {
	}
	c.driving = false
	if c.woken {
		c.woken = false
		return c.val
	}
	if !e.yield(struct{}{}) {
		panic(errAbandoned)
	}
	return c.val
}

func (e *env) CoreID() int { return e.core.id }

func (e *env) Load(addr memory.Addr, size int) uint64 {
	return e.do(request{kind: reqLoad, addr: addr, size: size})
}

func (e *env) Store(addr memory.Addr, size int, val uint64) {
	e.do(request{kind: reqStore, addr: addr, size: size, val: val})
}

func (e *env) PersistBarrier(addrs ...memory.Addr) {
	e.persistBarrier(addrs)
}

func (e *env) persistBarrier(addrs []memory.Addr) {
	if e.core.cfg.EpochMode {
		// One epoch-marker instruction, regardless of how many lines the
		// operation touched.
		e.do(request{kind: reqEpoch})
		return
	}
	if !e.core.cfg.ExplicitPersist {
		return
	}
	for _, a := range addrs {
		e.do(request{kind: reqPersist, addr: a})
	}
	e.do(request{kind: reqFence})
}

func (e *env) Flush(addr memory.Addr) {
	if !e.core.cfg.ExplicitPersist {
		return
	}
	e.do(request{kind: reqPersist, addr: addr})
}

func (e *env) Fence() {
	if e.core.cfg.EpochMode {
		e.do(request{kind: reqEpoch})
		return
	}
	if !e.core.cfg.ExplicitPersist {
		return
	}
	e.do(request{kind: reqFence})
}

func (e *env) Compute(n engine.Cycle) {
	if n == 0 {
		return
	}
	e.do(request{kind: reqCompute, cycles: n})
}

func (e *env) CompareAndSwap(addr memory.Addr, size int, old, new uint64) (uint64, bool) {
	prev := e.do(request{kind: reqCAS, addr: addr, size: size, old: old, val: new})
	return prev, prev == old
}

// Now reads the engine clock without a machine round-trip. This is safe and
// deterministic because the program only runs inside the core's fetch and
// the clock moves only when an event is dispatched. Between Env calls the
// program dispatches nothing, so the clock stays at the cycle of the event
// that delivered its last reply — whether that event ran in the loop or
// inline on the program's own coroutine (env.do). The coroutine switch of
// a resume orders the program's accesses after the engine's.
func (e *env) Now() engine.Cycle { return e.core.eng.Now() }

// Load64 is a convenience for pointer-sized loads.
func Load64(e Env, addr memory.Addr) uint64 { return e.Load(addr, 8) }

// Store64 is a convenience for pointer-sized stores.
func Store64(e Env, addr memory.Addr, val uint64) { e.Store(addr, 8, val) }

// PersistBarrier issues e.PersistBarrier(addrs...) without the heap
// allocation a variadic call through the interface forces: a variadic slice
// passed to an interface method always escapes, so on the barrier-per-
// operation hot path every Env.PersistBarrier call allocates. Calling
// through the concrete type instead lets the addrs backing array stay on the
// caller's stack. Non-package Env implementations (test recorders) take the
// interface path, where the slice is copied so the caller's array still
// does not escape.
func PersistBarrier(e Env, addrs ...memory.Addr) {
	if ev, ok := e.(*env); ok {
		ev.persistBarrier(addrs)
		return
	}
	heap := make([]memory.Addr, len(addrs))
	copy(heap, addrs)
	e.PersistBarrier(heap...)
}
