// Package persist is the persistlint fixture: a self-contained model of
// the simulator's execution interface, rich enough (separate write-back
// and fence operations) to exercise the full dirty → flushed → durable
// lattice rather than only the combined PersistBarrier step.
package persist

type Addr uint64

type Env interface {
	Load(addr Addr, size int) uint64
	Store(addr Addr, size int, val uint64)
	WriteBack(addr Addr)
	Flush(addr Addr)
	Fence()
	PersistBarrier(addrs ...Addr)
	CompareAndSwap(addr Addr, size int, old, new uint64) (uint64, bool)
}

type Params struct{ NoBarriers bool }

// Store64 mirrors the simulator's cpu.Store64 convenience.
func Store64(e Env, addr Addr, val uint64) { e.Store(addr, 8, val) }

// barrier mirrors the workload package's NoBarriers-aware helper; calls
// through it must analyze like direct PersistBarrier calls (summaries).
func barrier(e Env, p Params, addrs ...Addr) {
	if p.NoBarriers {
		return
	}
	e.PersistBarrier(addrs...)
}

// newNode dirties an address and returns it: a dirty-returning helper.
func newNode(e Env, at Addr, v uint64) Addr {
	Store64(e, at, v)
	return at
}

// The seeded WAL bug: the tail is published before the record is durable.
func walBroken(e Env, rec, tail Addr, p Params) {
	Store64(e, rec, 42)
	//bbbvet:commit-store rec
	Store64(e, tail, 1) // want "dependee rec is dirty \\(not yet flushed\\) on some path to this publish"
	barrier(e, p, tail)
}

func walFixed(e Env, rec, tail Addr, p Params) {
	Store64(e, rec, 42)
	barrier(e, p, rec)
	//bbbvet:commit-store rec
	Store64(e, tail, 1)
	barrier(e, p, tail)
}

// Flushed is not durable: the fence is still missing at the publish.
func publishFlushedNotFenced(e Env, rec, tail Addr) {
	Store64(e, rec, 7)
	e.WriteBack(rec)
	//bbbvet:commit-store rec
	Store64(e, tail, 1) // want "dependee rec is flushed but not yet fenced on some path to this publish"
	e.Fence()
}

func doubleFlush(e Env, a Addr) {
	Store64(e, a, 1)
	e.WriteBack(a)
	e.WriteBack(a) // want "redundant flush of a: already flushed on every path here"
	e.Fence()
}

func flushAfterBarrier(e Env, a Addr) {
	Store64(e, a, 1)
	e.PersistBarrier(a)
	e.WriteBack(a) // want "redundant flush of a: already durable on every path here"
}

func doubleBarrier(e Env, a Addr) {
	Store64(e, a, 1)
	e.PersistBarrier(a)
	e.PersistBarrier(a) // want "redundant persist barrier: a already durable on every path here and no flushed stores pending"
}

func doubleFence(e Env, a Addr) {
	Store64(e, a, 1)
	e.WriteBack(a)
	e.Fence()
	e.Fence() // want "redundant fence: no flushed stores pending on any path here"
}

// The barrier is only conditionally redundant — on the other path the
// store is still dirty — so a must-redundancy lint stays silent.
func conditionallyDurable(e Env, a Addr, c bool) {
	Store64(e, a, 1)
	if c {
		e.PersistBarrier(a)
	}
	e.PersistBarrier(a)
}

// Per-iteration store+barrier: the back edge joins in the durable state,
// so neither a redundancy nor an ordering diagnostic may fire.
func loopDiscipline(e Env, base Addr, n int) {
	for i := 0; i < n; i++ {
		slot := base + Addr(i)*8
		Store64(e, slot, uint64(i))
		e.PersistBarrier(slot)
	}
}

// An interpreter loop over one address with its store, flush and fence in
// different branches: the store branch's dirty state wins the join at the
// loop head, but the flush branch leaves a write-back pending there, so the
// fence is not redundant.
func opLoop(e Env, a Addr, ops []int) {
	for _, op := range ops {
		switch op {
		case 0:
			Store64(e, a, 1)
		case 1:
			e.WriteBack(a)
		case 2:
			e.Fence()
		}
	}
}

// The same loop without a flush branch: no path has a write-back pending,
// so the fence is redundant.
func opLoopNoFlush(e Env, a Addr, ops []int) {
	for _, op := range ops {
		switch op {
		case 0:
			Store64(e, a, 1)
		case 2:
			e.Fence() // want "redundant fence: no flushed stores pending on any path here"
		}
	}
}

// The publish discipline factored through helpers: newNode's return value
// is dirty (summary), barrier makes it durable, then publishing is fine.
func publishViaHelper(e Env, slot, at Addr, p Params) {
	n := newNode(e, at, 7)
	barrier(e, p, n)
	//bbbvet:commit-store n
	Store64(e, slot, uint64(n))
	barrier(e, p, slot)
}

func publishViaHelperBroken(e Env, slot, at Addr, p Params) {
	n := newNode(e, at, 7)
	//bbbvet:commit-store n
	Store64(e, slot, uint64(n)) // want "dependee n is dirty"
	barrier(e, p, slot)
}

// With no names on the directive, dependees are inferred from the stored
// value: publishing uint64(node) makes node the dependee.
func inferredBroken(e Env, head Addr) {
	node := head + 64
	Store64(e, node, 1)
	//bbbvet:commit-store
	Store64(e, head, uint64(node)) // want "dependee node is dirty"
}

func inferredFixed(e Env, head Addr) {
	node := head + 64
	Store64(e, node, 1)
	e.PersistBarrier(node)
	//bbbvet:commit-store
	Store64(e, head, uint64(node))
	e.PersistBarrier(head)
}

func badDep(e Env, head Addr) {
	//bbbvet:commit-store missing
	Store64(e, head, 1) // want "commit-store dependee \"missing\" does not name a location in this function"
	e.PersistBarrier(head)
}

// A CAS is a publish too (the lock-free pattern).
func casPublish(e Env, head Addr, cur uint64) {
	node := head + 128
	Store64(e, node, 1)
	//bbbvet:commit-store node
	if _, ok := e.CompareAndSwap(head, 8, cur, uint64(node)); ok { // want "dependee node is dirty"
		_ = ok
	}
}

// Program-shaped (one Env parameter, no results): the exit check applies.
func programMissingBarriers(e Env) {
	a := Addr(64)
	Store64(e, a, 1) // want "never made durable on some path to program exit \\(still dirty\\) — this program issues no barriers at all, so Options.NoBarriers is vacuous for it"
}

func programDirtyOnOnePath(e Env) {
	a := Addr(128)
	Store64(e, a, 1) // want "never made durable on some path to program exit \\(still dirty\\)$"
	if a > 0 {
		e.PersistBarrier(a)
	}
}

func programDisciplined(e Env) {
	a := Addr(192)
	Store64(e, a, 2)
	e.PersistBarrier(a)
}

// The barrier after return is unreachable: no redundancy diagnostic may
// come from a dead block.
func deadCode(e Env, a Addr) {
	Store64(e, a, 1)
	e.PersistBarrier(a)
	return
	e.PersistBarrier(a)
}

// A finding suppressed the usual way stays suppressed.
func ignoredCase(e Env, a Addr) {
	Store64(e, a, 1)
	e.Fence() //bbbvet:ignore persistlint deliberate early fence for the test
}
