// Package pressure is the pressurelint fixture: a self-contained model of
// the simulator's execution interface plus programs pinning every bound
// the analysis computes — straight-line sums, bounded-loop trip
// multiplication, unbounded-loop and recursion widening, allocation-span
// footprints, volatile scratch exclusion and dirty-returning helpers.
// The file is pinned to the strict discipline, so statically unbounded
// strict pressure is a diagnostic here.
//
//bbbvet:scheme pmem
package pressure

type Addr uint64

type Env interface {
	Load(addr Addr, size int) uint64
	Store(addr Addr, size int, val uint64)
	WriteBack(addr Addr)
	Fence()
	PersistBarrier(addrs ...Addr)
}

// Store64 mirrors cpu.Store64.
func Store64(e Env, addr Addr, val uint64) { e.Store(addr, 8, val) }

// heap hands out distinct line-aligned persistent addresses.
func heap(i int) Addr { return Addr(0x10000 + i*4096) }

// Arena mirrors palloc.Arena: the analysis learns object footprints from
// constant-size Alloc calls.
type Arena struct{ next Addr }

func (a *Arena) Alloc(size uint64) Addr {
	at := a.next
	a.next += Addr(size)
	return at
}

// scratch is DRAM-side: stores through its result carry no pressure.
//
//bbbvet:volatile
func scratch() Addr { return 0x1000 }

// newNode dirties an address and returns it: the dirty-result summary
// path.
func newNode(e Env, at Addr) Addr {
	Store64(e, at, 7)
	return at
}

// recurse dirties one line per level: pressure depends on depth, so the
// SCC widening must send its peak to ⊤.
func recurse(e Env, at Addr, depth int) {
	if depth == 0 {
		return
	}
	Store64(e, at, uint64(depth))
	recurse(e, at+64, depth-1)
}

// fence is program-shaped (one Env, no results) but a helper: rangePerSlot
// calls it, so it is bounded inside its caller and gets no certificate.
func fence(e Env) { e.Fence() }

var n = 100 // defeats constant trip detection

// straightLine: two one-line classes live at once. strict=2 relaxed=2.
func straightLine(e Env) {
	a := heap(0)
	b := heap(1)
	Store64(e, a, 1)
	Store64(e, b, 2)
	e.PersistBarrier(a, b)
}

// boundedDrained: the barrier empties the carried set every iteration, so
// the strict bound is the single in-flight line; relaxed carries one fresh
// line per trip. strict=1 relaxed=9 (peak 1 + 8 carried).
func boundedDrained(e Env) {
	for i := 0; i < 8; i++ {
		at := heap(i)
		Store64(e, at, 1)
		e.PersistBarrier(at)
	}
}

// rangePerSlot: a write-back keeps lines non-durable until the final
// fence (through the fence helper), so all four trips carry. strict=5 relaxed=5 (peak 1 + 4 carried).
func rangePerSlot(e Env) {
	var slots [4]uint64
	_ = slots
	base := heap(10)
	for j := range slots {
		at := base + Addr(j)*64
		Store64(e, at, 1)
		e.WriteBack(at)
	}
	fence(e)
}

// rangeInt: range-over-int trip detection; the barrier lists the wrong
// class, so the stores stay carried. strict=4 relaxed=4 (peak 1 + 3).
func rangeInt(e Env) {
	base := heap(20)
	for j := range 3 {
		at := base + Addr(j)*64
		Store64(e, at, 1)
	}
	e.PersistBarrier(base)
}

// allocSpan: dynamic offsets within one 256-byte object are capped by the
// allocation footprint, not trip-multiplied. strict=4 relaxed=4.
func allocSpan(e Env) {
	var ar Arena
	buf := ar.Alloc(256)
	for i := 0; i < 32; i++ {
		Store64(e, buf+Addr(i*8), 1)
	}
	e.PersistBarrier(buf)
}

// volatileExcluded: the scratch stores are DRAM-side. strict=1 relaxed=1.
func volatileExcluded(e Env) {
	s := scratch()
	for i := 0; i < 512; i++ {
		Store64(e, s+Addr(i*8), 1)
	}
	at := heap(30)
	Store64(e, at, 1)
	e.PersistBarrier(at)
}

// viaHelper: the helper's dirty result binds to node. The argument class
// and the returned handle are conservatively distinct locations (the
// analysis does not unify results with arguments), so the bound is 2 for
// one physical line — an over-approximation, never an undercount.
func viaHelper(e Env) {
	node := newNode(e, heap(40))
	e.PersistBarrier(node)
}

// drainedUnbounded drains every iteration, by a barrier in the first loop
// and by a write-back plus fence in the second: the strict bound stays
// finite even though the trip counts are unknown; only the relaxed bound
// widens (with a finding), to be capped by the buffer organization.
func drainedUnbounded(e Env) {
	for i := 0; i < n; i++ {
		at := heap(i)
		Store64(e, at, 1)
		e.PersistBarrier(at)
	}
	for i := 0; i < n; i++ {
		at := heap(i)
		Store64(e, at, 1)
		e.WriteBack(at)
		e.Fence()
	}
}

// An unknown trip count with nothing draining the carried set is
// statically unbounded even under the strict discipline.
func unboundedLoop(e Env) { // want "persist pressure is statically unbounded under the pmem discipline"
	for i := 0; i < n; i++ {
		at := heap(i)
		Store64(e, at, 1)
	}
	e.Fence()
}

// Recursion whose pressure grows with depth widens to ⊤.
func recursivePressure(e Env) { // want "persist pressure is statically unbounded under the pmem discipline"
	recurse(e, heap(50), 8)
	e.Fence()
}

type Program func(Env)

type Params struct{ Threads int }

// W pins unit naming: program literals returned by a Programs method merge
// under the receiver type, taking the worst bound. strict=2 (the second
// literal) relaxed=2.
type W struct{}

func (w *W) Programs(p Params) []Program {
	out := make([]Program, 2)
	out[0] = func(e Env) {
		at := heap(60)
		Store64(e, at, 1)
		e.PersistBarrier(at)
	}
	out[1] = func(e Env) {
		a := heap(61)
		b := heap(62)
		Store64(e, a, 1)
		Store64(e, b, 2)
		e.PersistBarrier(a, b)
	}
	return out
}
