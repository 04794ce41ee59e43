package workload

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// CTree is the Table IV "ctree" row: random-key insertions into a crit-bit
// (binary radix) tree, the structure the PMDK examples call ctree. Each
// thread owns a private tree.
//
// Insert ordering: the new leaf and its new internal parent are fully
// initialized (children pointing at both the old subtree and the new leaf,
// magic written last), and the operation commits with a single pointer
// store into the existing tree — so every crash prefix is a valid tree.
//
// Leaf layout:     [magic, key, val]
// Internal layout: [magic, bit, left, right]
type CTree struct {
	rootsBase memory.Addr
	arenas    []*palloc.Arena
	threads   int
}

// NewCTree builds the crit-bit tree workload.
func NewCTree() *CTree { return &CTree{} }

// Name implements Workload.
func (c *CTree) Name() string { return "ctree" }

// Description implements Workload.
func (c *CTree) Description() string { return "random insertions into a persistent crit-bit tree" }

// PaperPStores implements Workload (Table IV: 18.9%).
func (c *CTree) PaperPStores() float64 { return 18.9 }

const (
	offLeafMagic = 0
	offLeafKey   = 8
	offLeafVal   = 16
	leafSize     = 24

	offIntMagic = 0
	offIntBit   = 8
	offIntLeft  = 16
	offIntRight = 24
	intSize     = 32
)

// Setup implements Workload: a root pointer per thread, nil-initialized.
func (c *CTree) Setup(mem *memory.Memory, arena *palloc.Arena, p Params) {
	c.threads = p.Threads
	c.rootsBase = arena.Alloc(uint64(p.Threads) * memory.LineSize)
	c.arenas = nil
	for t := 0; t < p.Threads; t++ {
		mem.Poke64(c.root(t), 0)
		// Worst case two nodes per insertion.
		c.arenas = append(c.arenas, arena.Sub(uint64(2*p.OpsPerThread+2)*memory.LineSize))
	}
}

func (c *CTree) root(t int) memory.Addr {
	return c.rootsBase + memory.Addr(t)*memory.LineSize
}

// newLeaf writes a fully initialized leaf and returns its address.
func (c *CTree) newLeaf(e cpu.Env, t int, key, val uint64) memory.Addr {
	leaf := c.arenas[t].Alloc(leafSize)
	cpu.Store64(e, leaf+offLeafKey, key)
	cpu.Store64(e, leaf+offLeafVal, val)
	cpu.Store64(e, leaf+offLeafMagic, magicLeaf)
	return leaf
}

// Programs implements Workload.
func (c *CTree) Programs(p Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := rng(p, t)
			root := c.root(t)
			for i := 0; i < p.OpsPerThread; i++ {
				c.insert(e, p, t, root, r.Uint64(), uint64(i))
				volatileWork(e, t, c.volWork(p), r)
			}
		}
	}
	return progs
}

func (c *CTree) volWork(p Params) int {
	if p.VolatileWork > 0 {
		return p.VolatileWork
	}
	return 34
}

// insert adds (key, val) to the tree rooted at the pointer cell root.
func (c *CTree) insert(e cpu.Env, p Params, t int, root memory.Addr, key, val uint64) {
	cur := cpu.Load64(e, root)
	if cur == 0 {
		leaf := c.newLeaf(e, t, key, val)
		barrier(e, p, leaf)
		cpu.Store64(e, root, leaf) //bbbvet:commit-store leaf
		barrier(e, p, root)
		return
	}
	// Descend to the candidate leaf, remembering the path cells.
	ptrCell := root
	node := memory.Addr(cur)
	for peek := cpu.Load64(e, node+offIntMagic); peek == magicInternal; peek = cpu.Load64(e, node+offIntMagic) {
		bit := cpu.Load64(e, node+offIntBit)
		if key&(1<<bit) == 0 {
			ptrCell = node + offIntLeft
		} else {
			ptrCell = node + offIntRight
		}
		node = memory.Addr(cpu.Load64(e, ptrCell))
	}
	exKey := cpu.Load64(e, node+offLeafKey)
	if exKey == key {
		// Update in place: a single 8-byte store, trivially ordered.
		cpu.Store64(e, node+offLeafVal, val)
		barrier(e, p, node)
		return
	}
	// Find the highest differing bit, then re-descend to the correct
	// insertion point: the first edge whose subtree's crit bit is below
	// ours (standard crit-bit insertion).
	diff := exKey ^ key
	bit := uint64(63)
	for diff&(1<<bit) == 0 {
		bit--
	}
	ptrCell = root
	node = memory.Addr(cpu.Load64(e, root))
	for cpu.Load64(e, node+offIntMagic) == magicInternal {
		nbit := cpu.Load64(e, node+offIntBit)
		if nbit <= bit {
			break
		}
		if key&(1<<nbit) == 0 {
			ptrCell = node + offIntLeft
		} else {
			ptrCell = node + offIntRight
		}
		node = memory.Addr(cpu.Load64(e, ptrCell))
	}
	// Build the new leaf and internal node completely off to the side.
	leaf := c.newLeaf(e, t, key, val)
	inode := c.arenas[t].Alloc(intSize)
	cpu.Store64(e, inode+offIntBit, bit)
	if key&(1<<bit) == 0 {
		cpu.Store64(e, inode+offIntLeft, leaf)
		cpu.Store64(e, inode+offIntRight, uint64(node))
	} else {
		cpu.Store64(e, inode+offIntLeft, uint64(node))
		cpu.Store64(e, inode+offIntRight, leaf)
	}
	cpu.Store64(e, inode+offIntMagic, magicInternal)
	barrier(e, p, leaf, inode)
	// Commit: one pointer store into the live tree.
	cpu.Store64(e, ptrCell, inode) //bbbvet:commit-store leaf inode
	barrier(e, p, memory.LineAddr(ptrCell))
}

// Check implements Workload: every reachable node is fully initialized and
// every leaf's key is consistent with the bit decisions on its path.
func (c *CTree) Check(mem *memory.Memory) error {
	for t := 0; t < c.threads; t++ {
		rootPtr := mem.Peek64(c.root(t))
		if rootPtr == 0 {
			continue
		}
		if err := c.checkNode(mem, t, memory.Addr(rootPtr), 0, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// checkNode validates the subtree at node; fixedMask/fixedBits carry the key
// bits implied by the path so far.
func (c *CTree) checkNode(mem *memory.Memory, t int, node memory.Addr, fixedMask, fixedBits uint64, depth int) error {
	if depth > 70 {
		return fmt.Errorf("ctree[%d]: depth exceeds key width (corrupt links)", t)
	}
	switch magic := mem.Peek64(node + offIntMagic); magic {
	case magicLeaf:
		key := mem.Peek64(node + offLeafKey)
		if key&fixedMask != fixedBits {
			return fmt.Errorf("ctree[%d]: leaf %#x key %#x violates path bits (mask %#x want %#x)", t, node, key, fixedMask, fixedBits)
		}
		return nil
	case magicInternal:
		bit := mem.Peek64(node + offIntBit)
		if bit > 63 {
			return fmt.Errorf("ctree[%d]: internal %#x has bit %d", t, node, bit)
		}
		left := mem.Peek64(node + offIntLeft)
		right := mem.Peek64(node + offIntRight)
		if left == 0 || right == 0 {
			return fmt.Errorf("ctree[%d]: internal %#x has nil child (partial publish)", t, node)
		}
		if err := c.checkNode(mem, t, memory.Addr(left), fixedMask|1<<bit, fixedBits, depth+1); err != nil {
			return err
		}
		return c.checkNode(mem, t, memory.Addr(right), fixedMask|1<<bit, fixedBits|1<<bit, depth+1)
	default:
		return fmt.Errorf("ctree[%d]: reachable node %#x has magic %#x (unpersisted node published)", t, node, magic)
	}
}

var _ Workload = (*CTree)(nil)
