package workload

import (
	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// LinkedList is the motivating example of the paper's Figures 2 and 3: each
// thread prepends nodes to its own persistent list. The ordering-critical
// pair is (persist the node) before (persist the head pointer); with
// NoBarriers under the PMEM baseline the head can persist first and a crash
// strands it pointing at an uninitialized node — exactly the bug the paper
// opens with. Under BBB the barrier-free code is always recoverable.
//
// Node layout (one line): [magic, val, next].
type LinkedList struct {
	headsBase memory.Addr
	arenas    []*palloc.Arena
	threads   int
}

// NewLinkedList builds the Figures 2/3 workload.
func NewLinkedList() *LinkedList { return &LinkedList{} }

// Name implements Workload.
func (l *LinkedList) Name() string { return "linkedlist" }

// Description implements Workload.
func (l *LinkedList) Description() string {
	return "per-thread persistent linked-list prepends (Figures 2/3)"
}

// PaperPStores implements Workload; the list is not a Table IV row.
func (l *LinkedList) PaperPStores() float64 { return 0 }

const (
	offListMagic = 0
	offListVal   = 8
	offListNext  = 16
	listNodeSize = 24
)

// Setup implements Workload: one head pointer per thread, initialized nil.
func (l *LinkedList) Setup(mem *memory.Memory, arena *palloc.Arena, p Params) {
	l.threads = p.Threads
	l.headsBase = arena.Alloc(uint64(p.Threads) * memory.LineSize)
	l.arenas = nil
	for i := 0; i < p.Threads; i++ {
		mem.Poke64(l.head(i), 0)
		need := uint64(p.OpsPerThread+1) * memory.LineSize
		l.arenas = append(l.arenas, arena.Sub(need))
	}
}

// head returns thread i's head-pointer address (one line each, no false
// sharing).
func (l *LinkedList) head(i int) memory.Addr {
	return l.headsBase + memory.Addr(i)*memory.LineSize
}

// Programs implements Workload.
func (l *LinkedList) Programs(p Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := rng(p, t)
			head := l.head(t)
			cur := cpu.Load64(e, head)
			for i := 0; i < p.OpsPerThread; i++ {
				node := l.arenas[t].Alloc(listNodeSize)
				// Initialize the node: value, next, then magic last so a
				// valid magic implies a fully written node.
				cpu.Store64(e, node+offListVal, uint64(i)+1)
				cpu.Store64(e, node+offListNext, cur)
				cpu.Store64(e, node+offListMagic, magicListNode)
				barrier(e, p, node) // Figure 3 line 7-8
				// Publish: swing the head pointer.
				cpu.Store64(e, head, node) //bbbvet:commit-store node
				barrier(e, p, head)        // Figure 3 line 12-13
				cur = node
				volatileWork(e, t, l.volWork(), r)
			}
		}
	}
	return progs
}

func (l *LinkedList) volWork() int {
	return 2
}

// Check implements Workload: walk every thread's list in the durable image.
// A head (or next pointer) must reference a fully initialized node, and the
// values along the chain must strictly descend — prepends of i+1 mean a
// node's value is exactly one more than its successor's. Its errors are
// listErrors, formatted only when read: under PMEM without barriers most
// reachable images fail, and the crash-image model checker reads the text
// of only the few it records.
func (l *LinkedList) Check(mem *memory.Memory) error {
	for t := 0; t < l.threads; t++ {
		ptr := mem.Peek64(l.head(t))
		steps := 0
		prev := uint64(0)
		for ptr != 0 {
			if magic := mem.Peek64(memory.Addr(ptr) + offListMagic); magic != magicListNode {
				return &listError{listBadMagic, int32(t), ptr, magic}
			}
			val := mem.Peek64(memory.Addr(ptr) + offListVal)
			if val == 0 {
				return &listError{listZeroValue, int32(t), ptr, 0}
			}
			if prev != 0 && val != prev-1 {
				return &listError{listGap, int32(t), prev, val}
			}
			prev = val
			ptr = mem.Peek64(memory.Addr(ptr) + offListNext)
			if steps++; steps > 1<<22 {
				return &listError{listCycle, int32(t), 0, 0}
			}
		}
	}
	return nil
}

var _ Workload = (*LinkedList)(nil)
