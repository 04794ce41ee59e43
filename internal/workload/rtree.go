package workload

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// RTree is the Table IV "rtree" row: random insertions into a persistent
// hierarchical bounding structure. Nodes carry a 1-D bounding interval
// [lo, hi]; internal nodes hold child pointers, leaves hold point items.
// Each thread owns a private tree.
//
// Insert ordering (the interesting part for persist ordering):
//
//  1. Descending, a node's bounds are *widened before* the insertion
//     proceeds into its subtree — so at every instant each node's interval
//     contains its children's (a conservative, never-violated containment).
//  2. A leaf append writes the item slot first and bumps the count after —
//     a crash between the two just hides the item.
//  3. A full leaf is handled by building a fully initialized internal node
//     (old leaf + fresh leaf as children, magic last) and swinging the
//     parent's single pointer — every prefix is a valid tree.
//
// Node layout (two lines): [magic, leaf, count, lo, hi, e0..e5] where the
// entries are child pointers (internal) or item values (leaf).
type RTree struct {
	rootsBase memory.Addr
	arenas    []*palloc.Arena
	threads   int
}

// NewRTree builds the rtree workload.
func NewRTree() *RTree { return &RTree{} }

// Name implements Workload.
func (rt *RTree) Name() string { return "rtree" }

// Description implements Workload.
func (rt *RTree) Description() string {
	return "random insertions into a persistent bounding-interval tree"
}

// PaperPStores implements Workload (Table IV: 15.5%).
func (rt *RTree) PaperPStores() float64 { return 15.5 }

const (
	offRMagic = 0
	offRLeaf  = 8
	offRCount = 16
	offRLo    = 24
	offRHi    = 32
	offREntry = 40
	rFanout   = 6
	rNodeSize = offREntry + rFanout*8 // 88 -> two lines
)

func (rt *RTree) root(t int) memory.Addr {
	return rt.rootsBase + memory.Addr(t)*memory.LineSize
}

// Setup implements Workload: per-thread root pointers, each pointing at an
// empty leaf pre-loaded in the image.
func (rt *RTree) Setup(mem *memory.Memory, arena *palloc.Arena, p Params) {
	rt.threads = p.Threads
	rt.rootsBase = arena.Alloc(uint64(p.Threads) * memory.LineSize)
	rt.arenas = nil
	for t := 0; t < p.Threads; t++ {
		// Worst case: a split allocates three two-line nodes per insertion.
		sub := arena.Sub(uint64(8*(p.OpsPerThread+2)) * memory.LineSize)
		rt.arenas = append(rt.arenas, sub)
		leaf := sub.Alloc(rNodeSize)
		mem.Poke64(leaf+offRMagic, magicRNode)
		mem.Poke64(leaf+offRLeaf, 1)
		mem.Poke64(leaf+offRCount, 0)
		mem.Poke64(leaf+offRLo, ^uint64(0)) // empty interval: lo > hi
		mem.Poke64(leaf+offRHi, 0)
		mem.Poke64(rt.root(t), uint64(leaf))
	}
}

// Programs implements Workload.
func (rt *RTree) Programs(p Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := rng(p, t)
			for i := 0; i < p.OpsPerThread; i++ {
				val := uint64(r.Int63n(1 << 40))
				rt.insert(e, p, t, val)
				volatileWork(e, t, rt.volWork(), r)
			}
		}
	}
	return progs
}

func (rt *RTree) volWork() int {
	return 43
}

// widen grows node's interval to include val, persisting before the caller
// proceeds deeper, preserving top-down containment.
func (rt *RTree) widen(e cpu.Env, p Params, node memory.Addr, val uint64) {
	lo := cpu.Load64(e, node+offRLo)
	hi := cpu.Load64(e, node+offRHi)
	changed := false
	if lo > hi { // empty
		cpu.Store64(e, node+offRLo, val)
		cpu.Store64(e, node+offRHi, val)
		changed = true
	} else {
		if val < lo {
			cpu.Store64(e, node+offRLo, val)
			changed = true
		}
		if val > hi {
			cpu.Store64(e, node+offRHi, val)
			changed = true
		}
	}
	if changed {
		barrier(e, p, node)
	}
}

// insert adds val to thread t's tree.
func (rt *RTree) insert(e cpu.Env, p Params, t int, val uint64) {
	ptrCell := rt.root(t)
	node := memory.Addr(cpu.Load64(e, ptrCell))
	for {
		rt.widen(e, p, node, val)
		if cpu.Load64(e, node+offRLeaf) == 1 {
			break
		}
		// Internal: descend into the child whose interval needs the least
		// enlargement (ties to the first).
		count := cpu.Load64(e, node+offRCount)
		best := memory.Addr(0)
		bestCell := memory.Addr(0)
		bestCost := ^uint64(0)
		for i := uint64(0); i < count; i++ {
			cell := node + offREntry + memory.Addr(i*8)
			child := memory.Addr(cpu.Load64(e, cell))
			lo := cpu.Load64(e, child+offRLo)
			hi := cpu.Load64(e, child+offRHi)
			cost := uint64(0)
			switch {
			case lo > hi:
				cost = 0 // empty child: free
			case val < lo:
				cost = lo - val
			case val > hi:
				cost = val - hi
			}
			if cost < bestCost {
				bestCost, best, bestCell = cost, child, cell
			}
		}
		ptrCell = bestCell
		node = best
	}

	count := cpu.Load64(e, node+offRCount)
	if count < rFanout {
		// Append: item slot first, count after — the crash-safe order.
		cpu.Store64(e, node+offREntry+memory.Addr(count*8), val)
		barrier(e, p, node+offREntry+memory.Addr(count*8))
		cpu.Store64(e, node+offRCount, count+1)
		barrier(e, p, node)
		return
	}

	// Leaf full: median split. Read the items, distribute low/high halves
	// (plus val) into two fresh leaves, build a fresh internal node over
	// them — all fully initialized off to the side — then commit with the
	// single parent-pointer swing. The old leaf becomes garbage, which the
	// paper's scope explicitly tolerates (§II-A: leaks are out of scope).
	items := make([]uint64, 0, rFanout+1)
	for i := uint64(0); i < count; i++ {
		items = append(items, cpu.Load64(e, node+offREntry+memory.Addr(i*8)))
	}
	items = append(items, val)
	sortU64(items)
	mid := len(items) / 2
	arena := rt.arenas[t]
	leafA := rt.newLeafWith(e, t, arena, items[:mid])
	leafB := rt.newLeafWith(e, t, arena, items[mid:])

	inode := arena.Alloc(rNodeSize)
	cpu.Store64(e, inode+offRLeaf, 0)
	cpu.Store64(e, inode+offRCount, 2)
	cpu.Store64(e, inode+offRLo, items[0])
	cpu.Store64(e, inode+offRHi, items[len(items)-1])
	cpu.Store64(e, inode+offREntry, uint64(leafA))
	cpu.Store64(e, inode+offREntry+8, uint64(leafB))
	cpu.Store64(e, inode+offRMagic, magicRNode)
	barrier(e, p, leafA, leafA+memory.LineSize, leafB, leafB+memory.LineSize, inode, inode+memory.LineSize)

	cpu.Store64(e, ptrCell, uint64(inode)) //bbbvet:commit-store leafA leafB inode
	barrier(e, p, memory.LineAddr(ptrCell))
}

// newLeafWith writes a fully initialized leaf holding the sorted items.
func (rt *RTree) newLeafWith(e cpu.Env, t int, arena *palloc.Arena, items []uint64) memory.Addr {
	leaf := arena.Alloc(rNodeSize)
	cpu.Store64(e, leaf+offRLeaf, 1)
	cpu.Store64(e, leaf+offRCount, uint64(len(items)))
	cpu.Store64(e, leaf+offRLo, items[0])
	cpu.Store64(e, leaf+offRHi, items[len(items)-1])
	for i, v := range items {
		cpu.Store64(e, leaf+offREntry+memory.Addr(i*8), v)
	}
	cpu.Store64(e, leaf+offRMagic, magicRNode)
	return leaf
}

func sortU64(xs []uint64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Check implements Workload: every reachable node is fully initialized,
// counts are in range, and every child interval (and leaf item) lies within
// its parent's interval — the containment invariant the widen-first
// ordering maintains at every instant.
func (rt *RTree) Check(mem *memory.Memory) error {
	for t := 0; t < rt.threads; t++ {
		rootPtr := mem.Peek64(rt.root(t))
		if rootPtr == 0 {
			return fmt.Errorf("rtree[%d]: nil root", t)
		}
		if err := rt.checkNode(mem, t, memory.Addr(rootPtr), 0, ^uint64(0), 0); err != nil {
			return err
		}
	}
	return nil
}

func (rt *RTree) checkNode(mem *memory.Memory, t int, node memory.Addr, pLo, pHi uint64, depth int) error {
	if depth > 64 {
		return fmt.Errorf("rtree[%d]: depth limit exceeded (corrupt links)", t)
	}
	if magic := mem.Peek64(node + offRMagic); magic != magicRNode {
		return fmt.Errorf("rtree[%d]: reachable node %#x has magic %#x (unpersisted node published)", t, node, magic)
	}
	leaf := mem.Peek64(node + offRLeaf)
	count := mem.Peek64(node + offRCount)
	lo := mem.Peek64(node + offRLo)
	hi := mem.Peek64(node + offRHi)
	if count > rFanout {
		return fmt.Errorf("rtree[%d]: node %#x count %d exceeds fanout", t, node, count)
	}
	if lo <= hi { // non-empty: must be inside the parent's interval
		if lo < pLo || hi > pHi {
			return fmt.Errorf("rtree[%d]: node %#x interval [%d,%d] escapes parent [%d,%d] (bounds persisted after child)", t, node, lo, hi, pLo, pHi)
		}
	}
	for i := uint64(0); i < count; i++ {
		entry := mem.Peek64(node + offREntry + memory.Addr(i*8))
		if leaf == 1 {
			if entry < lo || entry > hi {
				return fmt.Errorf("rtree[%d]: leaf %#x item %d outside [%d,%d]", t, node, entry, lo, hi)
			}
			continue
		}
		if entry == 0 {
			return fmt.Errorf("rtree[%d]: internal %#x has nil child (partial publish)", t, node)
		}
		if err := rt.checkNode(mem, t, memory.Addr(entry), lo, hi, depth+1); err != nil {
			return err
		}
	}
	return nil
}

var _ Workload = (*RTree)(nil)
