// Package workload implements the paper's Table IV benchmarks as real data
// structures executing against the simulated machine: rtree, ctree and
// hashmap insertions, array mutate and array swap (non-conflicting and
// conflicting variants), plus the motivating linked-list example of
// Figures 2 and 3.
//
// Every structure lives in the persistent heap and is written with
// *ordering-aware* code: each operation's stores are sequenced so that every
// program-order prefix leaves the structure consistent (fully initialize a
// node, then publish it with a single pointer store; widen bounds before
// descending; bump counts after filling slots). Under BBB that ordering is
// durable for free; under the PMEM baseline it needs the PersistBarrier
// calls, and omitting them (NoBarriers) reproduces the Figure 2 bug.
// Failure *atomicity* of whole operations is explicitly out of scope, as in
// the paper (§II-A, §VI) — checkers verify ordering invariants only.
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"bbb/internal/cpu"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// Params control a workload instance.
type Params struct {
	// Threads is the number of cores/programs (the paper runs 8).
	Threads int
	// OpsPerThread is the number of operations each thread performs.
	OpsPerThread int
	// Seed makes runs reproducible.
	Seed int64
	// NoBarriers omits PersistBarrier calls, reproducing Figure 2's buggy
	// code under the PMEM baseline (harmless under BBB/eADR — the point of
	// the paper).
	NoBarriers bool
	// BatchWindow is the request-batching window of the service-tier
	// workloads (internal/kvservice): a client holds its batch open for
	// this many cycles before the commit that makes the batch durable.
	// Zero uses the workload's default. Table IV workloads ignore it.
	BatchWindow engine.Cycle
	// SLOTarget is the service tier's latency objective in cycles: the
	// windowed latency series (kv.lat.win) counts requests over this
	// target per time window, which is what the CLIs render as SLO burn.
	// Zero uses the workload's default. Table IV workloads ignore it.
	SLOTarget uint64
}

// DefaultParams mirrors the paper's setup at a simulation-friendly scale.
func DefaultParams() Params {
	return Params{Threads: 8, OpsPerThread: 2000, Seed: 1}
}

// Workload is one Table IV benchmark.
type Workload interface {
	// Name is the Table IV identifier (rtree, ctree, hashmap, mutateNC...).
	Name() string
	// Description matches the Table IV description column.
	Description() string
	// Setup pre-loads the initial persistent image (roots, arrays) and
	// claims heap space from arena. Called once before Programs.
	Setup(mem *memory.Memory, arena *palloc.Arena, p Params)
	// Programs returns one program per thread.
	Programs(p Params) []system.Program
	// Check walks the persistent image as post-crash recovery code would,
	// returning an error on any ordering-invariant violation. A crash
	// campaign (crashmc.Config.Run) calls it on other goroutines while the
	// same instance's programs keep running, and concurrently with other
	// Check calls on different images, so it may read only instance state
	// that Setup fixed (roots, layouts, precomputed request streams) and
	// must write none. Its verdict, and which bytes it reads, must be a
	// deterministic function of the image bytes it reads through mem's
	// Peek methods: a campaign skips the check of an image that agrees with
	// an earlier one on every pending line the earlier check read, and
	// reuses that check's error (crashmc.Config.CheckRecord).
	Check(mem *memory.Memory) error
	// PaperPStores is the %P-stores column of Table IV (0 if not listed).
	PaperPStores() float64
}

// Registry returns the Table IV workloads, in the paper's order.
func Registry() []Workload {
	return []Workload{
		NewRTree(),
		NewCTree(),
		NewHashmap(),
		NewArray(OpMutate, false),
		NewArray(OpMutate, true),
		NewArray(OpSwap, false),
		NewArray(OpSwap, true),
	}
}

// Extras returns the workloads beyond Table IV: the Figures 2/3 linked
// list, the shadow-paging btree the paper's §IV-B prose mentions, and the
// write-ahead-log pattern of the NVWAL line of work.
func Extras() []Workload {
	return []Workload{NewLinkedList(), NewBTree(), NewWAL()}
}

// extraFactories holds workloads registered by other packages. They are
// factories, not instances, so every ByName lookup gets fresh state —
// matching how Registry and Extras construct on each call (witness replay
// and the conformance gates rebuild a workload by name and rely on that).
var extraFactories []func() Workload

// byNameCache memoizes the name → factory mapping ByName resolves through,
// so a lookup does not construct every Registry, Extras and registered
// workload. The cache holds *factories*, never instances: each hit still
// constructs a fresh workload, so a replayed or re-run workload never
// shares Setup state with another machine. Guarded by byNameMu and
// invalidated by Register (init-time registrations may land after a first
// lookup in tests).
var (
	byNameMu    sync.Mutex
	byNameCache map[string]func() Workload
)

// Register adds a workload constructor to the ByName namespace. It exists
// for generated corpora (the litmus tests of internal/litmus) and the
// service tier (internal/kvservice, internal/pds): registered workloads
// resolve by name — so witness replay finds them — but stay out of Registry
// and Extras, leaving the experiment matrices untouched.
func Register(f func() Workload) {
	byNameMu.Lock()
	defer byNameMu.Unlock()
	extraFactories = append(extraFactories, f)
	byNameCache = nil
}

// factoryFor returns the memoized factory for name, building the cache on
// the first lookup after a Register.
func factoryFor(name string) (func() Workload, bool) {
	byNameMu.Lock()
	defer byNameMu.Unlock()
	if byNameCache == nil {
		byNameCache = make(map[string]func() Workload)
		builtins := []func() Workload{
			func() Workload { return NewRTree() },
			func() Workload { return NewCTree() },
			func() Workload { return NewHashmap() },
			func() Workload { return NewArray(OpMutate, false) },
			func() Workload { return NewArray(OpMutate, true) },
			func() Workload { return NewArray(OpSwap, false) },
			func() Workload { return NewArray(OpSwap, true) },
			func() Workload { return NewLinkedList() },
			func() Workload { return NewBTree() },
			func() Workload { return NewWAL() },
		}
		for _, f := range append(builtins, extraFactories...) {
			name := f().Name() // one construction to learn the name
			if _, dup := byNameCache[name]; !dup {
				byNameCache[name] = f
			}
		}
	}
	f, ok := byNameCache[name]
	return f, ok
}

// ByName finds a registered workload (Table IV rows, Extras, and anything
// added via Register). Every call returns a freshly constructed instance.
func ByName(name string) (Workload, error) {
	if f, ok := factoryFor(name); ok {
		return f(), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// --- shared helpers ---

const (
	magicListNode = 0xB1B0_0001
	magicHashNode = 0xB1B0_0002
	magicLeaf     = 0xB1B0_0003
	magicInternal = 0xB1B0_0004
	magicRNode    = 0xB1B0_0005
	magicBNode    = 0xB1B0_0006
)

// rng returns the deterministic per-thread random stream.
func rng(p Params, thread int) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1000003 + int64(thread)))
}

// volatileScratchBase returns a per-thread DRAM scratch buffer address used
// to model the computation between persists (key generation, comparisons).
// The scratch region is outside every persistence domain, so stores through
// it carry no persist pressure.
//
//bbbvet:volatile
func volatileScratchBase(thread int) memory.Addr {
	return memory.Addr(0x1000_0000 + thread*64*memory.LineSize)
}

// volatileWork performs n DRAM stores (plus a read and a little compute) in
// the thread's scratch buffer — the non-persistent side of the store mix.
func volatileWork(e cpu.Env, thread, n int, r *rand.Rand) {
	base := volatileScratchBase(thread)
	for i := 0; i < n; i++ {
		off := memory.Addr(r.Intn(64*8)) * 8
		cpu.Store64(e, base+off, r.Uint64())
	}
	if n > 0 {
		cpu.Load64(e, base)
		e.Compute(engine.Cycle(4 * n))
	}
}

// listError is one LinkedList.Check complaint: a fault kind, the thread
// whose list has it and the two words it names. Fixed fields keep a
// rejected image to one allocation; the text is built only by Error.
type listError struct {
	fault  listFault
	thread int32 // with fault, one word: the error is 24 bytes
	a, b   uint64
}

type listFault uint8

const (
	listBadMagic  listFault = iota // a: the node, b: its magic
	listZeroValue                  // a: the node
	listGap                        // a, b: the two chain values
	listCycle
)

func (e *listError) Error() string {
	switch e.fault {
	case listBadMagic:
		return fmt.Sprintf("linkedlist[%d]: reachable node %#x has magic %#x (dangling publish — the Figure 2 bug)", e.thread, e.a, e.b)
	case listZeroValue:
		return fmt.Sprintf("linkedlist[%d]: node %#x has zero value", e.thread, e.a)
	case listGap:
		return fmt.Sprintf("linkedlist[%d]: chain values %d -> %d not consecutive", e.thread, e.a, e.b)
	default:
		return fmt.Sprintf("linkedlist[%d]: cycle detected", e.thread)
	}
}

// barrier issues the scheme's persist barrier unless the workload was built
// without them. It goes through cpu.PersistBarrier so the per-op variadic
// address list stays on the stack instead of escaping through the interface
// call.
func barrier(e cpu.Env, p Params, addrs ...memory.Addr) {
	if p.NoBarriers {
		return
	}
	cpu.PersistBarrier(e, addrs...)
}
