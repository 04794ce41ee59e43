package bbb

import (
	"fmt"
	"io"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/persistency"
	"bbb/internal/system"
)

// Env is the interface a custom program uses to execute on the simulated
// machine: Load/Store for memory, PersistBarrier for the active scheme's
// ordering instruction (free under BBB/eADR), Compute for non-memory work.
type Env = cpu.Env

// Addr is a simulated physical address.
type Addr = memory.Addr

// Machine is a fully wired simulated machine for custom programs — the
// route for building your own persistent data structures on top of the
// simulator rather than running the canned Table IV workloads.
//
//	m := bbb.NewMachine(bbb.SchemeBBB, bbb.Options{Threads: 2})
//	head := m.PAlloc(64)
//	m.RunPrograms(func(e bbb.Env) { e.Store(head, 8, 42) }, ...)
type Machine struct {
	sys   *system.System
	arena *palloc.Arena
}

// NewMachine builds a machine running scheme s.
func NewMachine(s Scheme, o Options) *Machine {
	cfg := o.sysConfig(s)
	if o.Threads > 0 {
		cfg.Cores = o.Threads
		cfg.Hierarchy.Cores = o.Threads
	}
	sys := system.New(cfg)
	return &Machine{sys: sys, arena: palloc.FromLayout(cfg.Layout)}
}

// Recover reboots after a crash: it returns a fresh machine (cold caches,
// empty persist buffers and store buffers) running scheme s over this
// machine's durable NVMM image, exactly what a restart sees. The
// persistent-heap allocator carries over so new allocations never collide
// with recovered data. Call after RunUntilCrash.
func (m *Machine) Recover(s Scheme, o Options) *Machine {
	cfg := o.sysConfig(s)
	if o.Threads > 0 {
		cfg.Cores = o.Threads
		cfg.Hierarchy.Cores = o.Threads
	}
	sys := system.NewOnImage(cfg, m.sys.Mem)
	return &Machine{sys: sys, arena: m.arena}
}

// Cores returns the machine's core count.
func (m *Machine) Cores() int { return m.sys.Cfg.Cores }

// PAlloc allocates size bytes of persistent memory (the paper's palloc):
// stores through the returned address are persisting stores.
func (m *Machine) PAlloc(size uint64) Addr { return m.arena.Alloc(size) }

// VolatileBase returns a DRAM address usable as scratch space (stores to it
// never persist).
func (m *Machine) VolatileBase() Addr { return 0x2000_0000 }

// Poke pre-loads bytes into the durable image before a run (initial state,
// as if recovered from an earlier session).
func (m *Machine) Poke(a Addr, b []byte) { m.sys.Mem.Poke(a, b) }

// Peek reads the durable NVMM image — what post-crash recovery code would
// see. It does NOT include data still in the volatile caches.
func (m *Machine) Peek(a Addr, n int) []byte { return m.sys.Mem.Peek(a, n) }

// Peek64 reads a little-endian 64-bit value from the durable image.
func (m *Machine) Peek64(a Addr) uint64 { return m.sys.Mem.Peek64(a) }

// RunPrograms runs one program per core to completion and returns the
// run's metrics. The machine is single-shot: build a new one per run.
func (m *Machine) RunPrograms(programs ...func(Env)) Result {
	if len(programs) != m.sys.Cfg.Cores {
		panic(fmt.Sprintf("bbb: %d programs for %d cores (set Options.Threads)", len(programs), m.sys.Cfg.Cores))
	}
	progs := make([]system.Program, len(programs))
	for i, p := range programs {
		progs[i] = system.Program(p)
	}
	return m.sys.Run(progs)
}

// RunUntilCrash runs the programs until crashCycle, then performs the
// scheme's flush-on-fail drain, leaving the durable image exactly as
// recovery would find it. It reports whether the programs finished first
// and what the battery had to drain.
func (m *Machine) RunUntilCrash(crashCycle Cycle, programs ...func(Env)) (finished bool, drained persistency.DrainReport) {
	if len(programs) != m.sys.Cfg.Cores {
		panic(fmt.Sprintf("bbb: %d programs for %d cores (set Options.Threads)", len(programs), m.sys.Cfg.Cores))
	}
	progs := make([]system.Program, len(programs))
	for i, p := range programs {
		progs[i] = system.Program(p)
	}
	finished = m.sys.RunUntil(crashCycle, progs)
	drained = m.sys.Crash()
	return finished, drained
}

// DrainReport is re-exported for RunUntilCrash callers.
type DrainReport = persistency.DrainReport

// DumpTrace writes the retained microarchitectural events (oldest first) to
// w; a no-op unless the machine was built with Options.TraceCapacity.
func (m *Machine) DumpTrace(w io.Writer) {
	if rec := m.sys.Trace(); rec != nil {
		rec.Dump(w)
	}
}
