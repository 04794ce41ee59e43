// Package palloc is the persistent-memory heap allocator of §III-A: it
// hands out chunks of the persistent physical address range (the paper's
// palloc), so every store a workload makes through one of its pointers is a
// persisting store.
//
// The allocator's metadata is deliberately kept host-side: the paper's
// workloads use persistent allocation as a given, and allocator crash
// consistency is out of scope ("permanent leaks ... are out of the scope of
// this paper", §II-A). The *data* the workloads write is fully simulated.
package palloc

import (
	"fmt"
	"sort"
	"sync"

	"bbb/internal/memory"
)

// Arena allocates from a contiguous persistent address range. It is safe
// for concurrent use.
type Arena struct {
	mu    sync.Mutex
	base  memory.Addr
	limit memory.Addr
	next  memory.Addr
	// free holds size-bucketed free lists of previously freed chunks.
	free map[uint64][]memory.Addr
	// allocated tracks live chunk sizes for Free validation.
	allocated map[memory.Addr]uint64
}

// New builds an arena over [base, base+size). base must be line-aligned.
func New(base memory.Addr, size uint64) *Arena {
	if base%memory.LineSize != 0 {
		panic(fmt.Sprintf("palloc: base %#x not line-aligned", base))
	}
	return &Arena{
		base:      base,
		limit:     base + memory.Addr(size),
		next:      base,
		free:      make(map[uint64][]memory.Addr),
		allocated: make(map[memory.Addr]uint64),
	}
}

// FromLayout builds an arena over the layout's whole persistent range.
func FromLayout(l memory.Layout) *Arena {
	return New(l.PersistentBase, l.PersistentSize)
}

// roundUp rounds n up to a multiple of the line size: allocations never
// share cache lines, mirroring how persistent allocators pad to avoid
// cross-object flush interference.
func roundUp(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + memory.LineSize - 1) &^ (memory.LineSize - 1)
}

// Alloc returns a line-aligned chunk of at least size bytes. It panics when
// the arena is exhausted: workloads size themselves to fit.
func (a *Arena) Alloc(size uint64) memory.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	sz := roundUp(size)
	if lst := a.free[sz]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		a.free[sz] = lst[:len(lst)-1]
		a.allocated[addr] = sz
		return addr
	}
	addr := a.next
	if addr+memory.Addr(sz) > a.limit {
		panic(fmt.Sprintf("palloc: arena exhausted (asked %d, %d left)", sz, a.limit-a.next))
	}
	a.next += memory.Addr(sz)
	a.allocated[addr] = sz
	return addr
}

// Free returns a chunk to the arena. Freeing an address that is not a live
// allocation panics — it would indicate workload corruption.
func (a *Arena) Free(addr memory.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sz, ok := a.allocated[addr]
	if !ok {
		panic(fmt.Sprintf("palloc: Free of non-allocated address %#x", addr))
	}
	delete(a.allocated, addr)
	a.free[sz] = append(a.free[sz], addr)
}

// Live reports the number of live allocations.
func (a *Arena) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.allocated)
}

// BytesUsed reports the high-water mark of arena consumption.
func (a *Arena) BytesUsed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return uint64(a.next - a.base)
}

// Allocations returns the live allocation addresses in ascending order;
// recovery checkers use it to bound their walks.
func (a *Arena) Allocations() []memory.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]memory.Addr, 0, len(a.allocated))
	//bbbvet:ignore detlint key collection; result is sorted before returning
	for addr := range a.allocated {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sub carves a private sub-arena of size bytes out of a, so each workload
// thread can allocate without contending (the paper's non-conflicting
// workloads partition their data this way).
func (a *Arena) Sub(size uint64) *Arena {
	base := a.Alloc(size)
	return New(base, roundUp(size))
}
