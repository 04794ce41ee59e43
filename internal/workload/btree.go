package workload

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// BTree is an extra workload beyond Table IV (the paper's §IV-B prose also
// names a btree): random-key insertions into a B+tree made crash consistent
// by *shadow paging* — the copy-on-write discipline of BPFS, which the
// paper cites as the origin of epoch persistency. Every insertion rewrites
// the root-to-leaf path into fresh nodes off to the side and commits with a
// single root-pointer store, so every program-order prefix is a complete,
// valid tree.
//
// This gives the simulator a very different persist-traffic profile from
// the in-place structures: several fresh, never-again-written lines per
// operation (no coalescing window at all), plus one hot root-pointer line
// (maximal coalescing). Each thread owns a private tree.
//
// Node layout (two lines): [magic, leaf, count, k0..k5, c0..c5] where the
// c slots hold child pointers (internal) or values (leaf).
type BTree struct {
	rootsBase  memory.Addr
	arenas     []*palloc.Arena
	threads    int
	noBarriers bool
}

// NewBTree builds the shadow-paging B+tree workload.
func NewBTree() *BTree { return &BTree{} }

// Name implements Workload.
func (bt *BTree) Name() string { return "btree" }

// Description implements Workload.
func (bt *BTree) Description() string {
	return "shadow-paging B+tree insertions (BPFS-style copy-on-write)"
}

// PaperPStores implements Workload; not a Table IV row, so no target. The
// measured mix is reported alongside.
func (bt *BTree) PaperPStores() float64 { return 0 }

const (
	offBMagic = 0
	offBLeaf  = 8
	offBCount = 16
	offBKeys  = 24
	bFanout   = 6
	offBVals  = offBKeys + bFanout*8
	bNodeSize = offBVals + bFanout*8 // 120 -> two lines
)

func (bt *BTree) root(t int) memory.Addr {
	return bt.rootsBase + memory.Addr(t)*memory.LineSize
}

// Setup implements Workload: per-thread root pointers at nil (empty tree).
func (bt *BTree) Setup(mem *memory.Memory, arena *palloc.Arena, p Params) {
	bt.threads = p.Threads
	bt.rootsBase = arena.Alloc(uint64(p.Threads) * memory.LineSize)
	bt.arenas = nil
	for t := 0; t < p.Threads; t++ {
		mem.Poke64(bt.root(t), 0)
		// Shadow paging rewrites up to depth+1 nodes (2 lines each) per
		// insertion; depth grows with log_3(n). Budget generously.
		bt.arenas = append(bt.arenas, arena.Sub(uint64(24*(p.OpsPerThread+4))*memory.LineSize))
	}
}

// nodeView is a host-side decoded copy of a node, used while building the
// shadow path. All simulated traffic happens in load/store helpers.
type nodeView struct {
	leaf  bool
	count int
	keys  [bFanout]uint64
	vals  [bFanout]uint64 // child pointers or leaf values
}

func (bt *BTree) readNode(e cpu.Env, a memory.Addr) nodeView {
	var v nodeView
	v.leaf = cpu.Load64(e, a+offBLeaf) == 1
	v.count = int(cpu.Load64(e, a+offBCount))
	for i := 0; i < v.count; i++ {
		v.keys[i] = cpu.Load64(e, a+offBKeys+memory.Addr(i*8))
		v.vals[i] = cpu.Load64(e, a+offBVals+memory.Addr(i*8))
	}
	return v
}

// writeNode materializes a fully initialized shadow node (magic last).
func (bt *BTree) writeNode(e cpu.Env, t int, v nodeView) memory.Addr {
	a := bt.arenas[t].Alloc(bNodeSize)
	leaf := uint64(0)
	if v.leaf {
		leaf = 1
	}
	cpu.Store64(e, a+offBLeaf, leaf)
	cpu.Store64(e, a+offBCount, uint64(v.count))
	for i := 0; i < v.count; i++ {
		cpu.Store64(e, a+offBKeys+memory.Addr(i*8), v.keys[i])
		cpu.Store64(e, a+offBVals+memory.Addr(i*8), v.vals[i])
	}
	cpu.Store64(e, a+offBMagic, magicBNode)
	return a
}

// insertView returns v with (key, val) inserted in sorted position; the
// caller guarantees capacity.
func insertView(v nodeView, key, val uint64) nodeView {
	i := v.count
	for i > 0 && v.keys[i-1] > key {
		v.keys[i] = v.keys[i-1]
		v.vals[i] = v.vals[i-1]
		i--
	}
	v.keys[i] = key
	v.vals[i] = val
	v.count++
	return v
}

// split divides an overfull view (count == bFanout after insertion would
// exceed) into two; used when count == bFanout and one more entry arrives.
func splitViews(v nodeView, key, val uint64) (left, right nodeView, sep uint64) {
	// Build the oversized ordered sequence on the host.
	keys := make([]uint64, 0, bFanout+1)
	vals := make([]uint64, 0, bFanout+1)
	ins := false
	for i := 0; i < v.count; i++ {
		if !ins && key < v.keys[i] {
			keys = append(keys, key)
			vals = append(vals, val)
			ins = true
		}
		keys = append(keys, v.keys[i])
		vals = append(vals, v.vals[i])
	}
	if !ins {
		keys = append(keys, key)
		vals = append(vals, val)
	}
	mid := len(keys) / 2
	left = nodeView{leaf: v.leaf}
	for i := 0; i < mid; i++ {
		left.keys[i], left.vals[i] = keys[i], vals[i]
		left.count++
	}
	right = nodeView{leaf: v.leaf}
	for i := mid; i < len(keys); i++ {
		right.keys[i-mid], right.vals[i-mid] = keys[i], vals[i]
		right.count++
	}
	return left, right, right.keys[0]
}

// insert performs one shadow-paging insertion and returns the new root
// (plus the shadow node addresses for the persist barrier).
func (bt *BTree) insert(e cpu.Env, t int, rootPtr memory.Addr, key, val uint64) {
	old := memory.Addr(cpu.Load64(e, rootPtr))
	var newRoot memory.Addr
	var shadows []memory.Addr
	if old == 0 {
		leaf := bt.writeNode(e, t, insertView(nodeView{leaf: true}, key, val))
		newRoot, shadows = leaf, []memory.Addr{leaf}
	} else {
		a, b, sep, sh := bt.shadowInsert(e, t, old, key, val)
		shadows = sh
		if b == 0 {
			newRoot = a
		} else {
			// Root split: one fresh internal root over the two halves.
			root := nodeView{count: 2}
			root.keys[0], root.vals[0] = 0, uint64(a)
			root.keys[1], root.vals[1] = sep, uint64(b)
			newRoot = bt.writeNode(e, t, root)
			shadows = append(shadows, newRoot)
		}
	}
	// Persist the shadow nodes (both lines each), then commit with the
	// single root-pointer store.
	barrierAddrs := make([]memory.Addr, 0, 2*len(shadows))
	for _, s := range shadows {
		barrierAddrs = append(barrierAddrs, s, s+memory.LineSize)
	}
	barrierParams := Params{NoBarriers: bt.noBarriers}
	barrier(e, barrierParams, barrierAddrs...)
	cpu.Store64(e, rootPtr, uint64(newRoot)) //bbbvet:commit-store newRoot shadows
	barrier(e, barrierParams, rootPtr)
}

// shadowInsert copies the path through node for (key,val). It returns one
// or two replacement nodes (two when node split, with the separator), and
// the shadow node addresses written.
func (bt *BTree) shadowInsert(e cpu.Env, t int, node memory.Addr, key, val uint64) (a, b memory.Addr, sep uint64, shadows []memory.Addr) {
	v := bt.readNode(e, node)
	if v.leaf {
		// Duplicate key: copy-on-write update in place, no growth.
		for i := 0; i < v.count; i++ {
			if v.keys[i] == key {
				v.vals[i] = val
				n := bt.writeNode(e, t, v)
				return n, 0, 0, []memory.Addr{n}
			}
		}
		if v.count < bFanout {
			n := bt.writeNode(e, t, insertView(v, key, val))
			return n, 0, 0, []memory.Addr{n}
		}
		lv, rv, s := splitViews(v, key, val)
		ln := bt.writeNode(e, t, lv)
		rn := bt.writeNode(e, t, rv)
		return ln, rn, s, []memory.Addr{ln, rn}
	}
	// Internal: pick the child whose separator range covers key (entries
	// are sorted; entry i covers keys >= keys[i], entry 0 covers the rest).
	ci := 0
	for i := 1; i < v.count; i++ {
		if key >= v.keys[i] {
			ci = i
		}
	}
	ca, cb, csep, sh := bt.shadowInsert(e, t, memory.Addr(v.vals[ci]), key, val)
	shadows = sh
	v.vals[ci] = uint64(ca)
	if cb != 0 {
		if v.count < bFanout {
			v = insertView(v, csep, uint64(cb))
			n := bt.writeNode(e, t, v)
			return n, 0, 0, append(shadows, n)
		}
		lv, rv, s := splitViews(v, csep, uint64(cb))
		ln := bt.writeNode(e, t, lv)
		rn := bt.writeNode(e, t, rv)
		return ln, rn, s, append(shadows, ln, rn)
	}
	n := bt.writeNode(e, t, v)
	return n, 0, 0, append(shadows, n)
}

// Programs implements Workload.
func (bt *BTree) Programs(p Params) []system.Program {
	bt.noBarriers = p.NoBarriers
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := rng(p, t)
			for i := 0; i < p.OpsPerThread; i++ {
				bt.insert(e, t, bt.root(t), r.Uint64(), uint64(i))
				volatileWork(e, t, bt.volWork(p), r)
			}
		}
	}
	return progs
}

func (bt *BTree) volWork(p Params) int {
	if p.VolatileWork > 0 {
		return p.VolatileWork
	}
	return 30
}

// Check implements Workload: full B+tree validation on the durable image —
// magic on every reachable node, counts in range, keys sorted, children
// within separator ranges, uniform leaf depth.
func (bt *BTree) Check(mem *memory.Memory) error {
	for t := 0; t < bt.threads; t++ {
		rootPtr := mem.Peek64(bt.root(t))
		if rootPtr == 0 {
			continue
		}
		if _, err := bt.checkNode(mem, t, memory.Addr(rootPtr), 0, ^uint64(0), 0); err != nil {
			return err
		}
	}
	return nil
}

// checkNode returns the leaf depth of the subtree.
func (bt *BTree) checkNode(mem *memory.Memory, t int, node memory.Addr, lo, hi uint64, depth int) (int, error) {
	if depth > 40 {
		return 0, fmt.Errorf("btree[%d]: depth limit exceeded", t)
	}
	if magic := mem.Peek64(node + offBMagic); magic != magicBNode {
		return 0, fmt.Errorf("btree[%d]: reachable node %#x has magic %#x (shadow published before persist)", t, node, magic)
	}
	leaf := mem.Peek64(node+offBLeaf) == 1
	count := int(mem.Peek64(node + offBCount))
	if count < 1 || count > bFanout {
		return 0, fmt.Errorf("btree[%d]: node %#x count %d out of range", t, node, count)
	}
	var prev uint64
	for i := 0; i < count; i++ {
		k := mem.Peek64(node + offBKeys + memory.Addr(i*8))
		if i > 0 && k <= prev {
			return 0, fmt.Errorf("btree[%d]: node %#x keys not ascending (%d then %d)", t, node, prev, k)
		}
		prev = k
		if leaf && (k < lo || k >= hi) {
			return 0, fmt.Errorf("btree[%d]: leaf %#x key %#x outside range [%#x,%#x)", t, node, k, lo, hi)
		}
	}
	if leaf {
		return depth, nil
	}
	leafDepth := -1
	for i := 0; i < count; i++ {
		child := mem.Peek64(node + offBVals + memory.Addr(i*8))
		if child == 0 {
			return 0, fmt.Errorf("btree[%d]: internal %#x has nil child", t, node)
		}
		cLo := lo
		if i > 0 {
			cLo = mem.Peek64(node + offBKeys + memory.Addr(i*8))
		}
		cHi := hi
		if i+1 < count {
			cHi = mem.Peek64(node + offBKeys + memory.Addr((i+1)*8))
		}
		d, err := bt.checkNode(mem, t, memory.Addr(child), cLo, cHi, depth+1)
		if err != nil {
			return 0, err
		}
		if leafDepth == -1 {
			leafDepth = d
		} else if d != leafDepth {
			return 0, fmt.Errorf("btree[%d]: leaves at mixed depths %d vs %d (unbalanced shadow commit)", t, leafDepth, d)
		}
	}
	return leafDepth, nil
}

var _ Workload = (*BTree)(nil)
