package pds

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
)

// Queue is the MSQ-style durably-linearizable persistent queue: a
// Michael-Scott queue whose enqueue seals and fences each node before the
// link CAS publishes it, so every durably-reachable node is durably valid.
// The tail cell is index state — recovery rebuilds it by walking from the
// head (RecoverQueue) — so tail swings are plain CASes with no persist
// cost, after FliT.
//
// Node layout (one cache line): [magic, val, next]. Header line:
// [head, tail].
type Queue struct {
	hdr   memory.Addr // header line: head cell at +0, tail cell at +8
	heaps []*palloc.Arena
}

const (
	qOffVal  = 8
	qOffNext = 16
	qNodeLen = 24

	qOffHead = 0
	qOffTail = 8
)

// NewQueue carves the queue out of arena and writes its initial durable
// image (header plus an empty sentinel node) directly — constructors run
// at Setup time, before the machine starts. Each of threads gets a private
// node heap sized for nodesPerThread enqueues, so concurrent allocation
// stays deterministic.
func NewQueue(mem *memory.Memory, arena *palloc.Arena, threads, nodesPerThread int) *Queue {
	q := &Queue{hdr: arena.Alloc(16)}
	sentinel := arena.Alloc(qNodeLen)
	mem.Poke64(sentinel, magicQueueNode)
	mem.Poke64(sentinel+qOffVal, 0)
	mem.Poke64(sentinel+qOffNext, 0)
	mem.Poke64(q.hdr+qOffHead, uint64(sentinel))
	mem.Poke64(q.hdr+qOffTail, uint64(sentinel))
	for t := 0; t < threads; t++ {
		q.heaps = append(q.heaps, arena.Sub(uint64(nodesPerThread)*memory.LineSize))
	}
	return q
}

// Base returns the header address, the root a recovery walk starts from.
func (q *Queue) Base() memory.Addr { return q.hdr }

// Enqueue appends val. tid selects the caller's node heap.
func (q *Queue) Enqueue(e cpu.Env, tid int, val uint64) {
	n := q.heaps[tid].Alloc(qNodeLen)
	cpu.Store64(e, n+qOffVal, val)
	cpu.Store64(e, n+qOffNext, 0)
	StoreP(e, n, magicQueueNode) // seal: one write-back covers the node's line
	DrainP(e)                    // node durable before any link can reach it
	for {
		t := memory.Addr(cpu.Load64(e, q.hdr+qOffTail))
		next := cpu.Load64(e, t+qOffNext)
		if next != 0 {
			// Tail lags; help it along. Plain CAS: the tail is rebuilt by
			// recovery, persisting it would buy nothing.
			e.CompareAndSwap(q.hdr+qOffTail, 8, uint64(t), next)
			continue
		}
		//bbbvet:commit-store n
		if _, ok := CASP(e, t+qOffNext, 0, uint64(n)); ok {
			e.CompareAndSwap(q.hdr+qOffTail, 8, uint64(t), uint64(n))
			return
		}
	}
}

// Dequeue removes and returns the oldest value, or false on empty. The
// head swing publishes an already-durable node (its enqueuer fenced it
// before linking), so the swing's own CASP is the only persist cost.
func (q *Queue) Dequeue(e cpu.Env) (uint64, bool) {
	for {
		h := memory.Addr(cpu.Load64(e, q.hdr+qOffHead))
		next := cpu.Load64(e, h+qOffNext)
		if next == 0 {
			return 0, false
		}
		val := cpu.Load64(e, memory.Addr(next)+qOffVal)
		if _, ok := CASP(e, q.hdr+qOffHead, uint64(h), next); ok {
			return val, true
		}
	}
}

// QueueImage is RecoverQueue's view of a crash image.
type QueueImage struct {
	// Vals holds the surviving values in queue order, head first.
	Vals []uint64
	// Tail is the rebuilt tail: the last reachable node.
	Tail memory.Addr
}

// RecoverQueue walks the durable image as post-crash recovery would: from
// the head cell along next links, demanding a valid magic on every
// reachable node — the durable-reachable-implies-durable-valid contract
// the enqueue discipline maintains. The stored tail cell is validated only
// as "points at a sealed node", never trusted for position.
func RecoverQueue(mem *memory.Memory, hdr memory.Addr) (QueueImage, error) {
	var img QueueImage
	head := memory.Addr(peek(mem, hdr+qOffHead))
	if head == 0 {
		return img, fmt.Errorf("pds/queue: head cell empty")
	}
	seen := map[memory.Addr]bool{}
	cur := head
	for {
		if seen[cur] {
			return img, fmt.Errorf("pds/queue: cycle through node %#x", cur)
		}
		seen[cur] = true
		if m := peek(mem, cur); m != magicQueueNode {
			return img, fmt.Errorf("pds/queue: node %#x reachable but not sealed (magic %#x)", cur, m)
		}
		if cur != head {
			img.Vals = append(img.Vals, peek(mem, cur+qOffVal))
		}
		next := memory.Addr(peek(mem, cur+qOffNext))
		if next == 0 {
			img.Tail = cur
			break
		}
		cur = next
	}
	if t := memory.Addr(peek(mem, hdr+qOffTail)); t != 0 {
		if m := peek(mem, t); m != magicQueueNode {
			return img, fmt.Errorf("pds/queue: tail cell %#x points at unsealed line (magic %#x)", t, m)
		}
	}
	return img, nil
}

// peek reads a little-endian uint64 from the durable image.
func peek(mem *memory.Memory, a memory.Addr) uint64 { return mem.Peek64(a) }
