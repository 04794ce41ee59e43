package workload

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// Hashmap is the Table IV "hashmap" row: random-key insertions into a
// chained hash table whose buckets and nodes live in the persistent heap.
// Each thread owns a private table (the paper's structure workloads are
// contention-free; the array workloads cover conflicts).
//
// Insert ordering (crash consistent by construction): fully write the node
// — key, value, next, then magic — and only then publish it by storing the
// bucket head. A crash at any prefix leaves the chain intact.
//
// Node layout (one line): [magic, key, val, next].
type Hashmap struct {
	buckets    int
	tableBases []memory.Addr
	arenas     []*palloc.Arena
	threads    int
}

// NewHashmap builds the hashmap workload with the default geometry.
func NewHashmap() *Hashmap { return &Hashmap{buckets: 1024} }

// Name implements Workload.
func (h *Hashmap) Name() string { return "hashmap" }

// Description implements Workload.
func (h *Hashmap) Description() string { return "random insertions into a persistent chained hashmap" }

// PaperPStores implements Workload (Table IV: 6.0%).
func (h *Hashmap) PaperPStores() float64 { return 6.0 }

const (
	offHashMagic = 0
	offHashKey   = 8
	offHashVal   = 16
	offHashNext  = 24
	hashNodeSize = 32
)

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Setup implements Workload: per-thread bucket arrays zeroed in the image.
func (h *Hashmap) Setup(mem *memory.Memory, arena *palloc.Arena, p Params) {
	h.threads = p.Threads
	h.tableBases = nil
	h.arenas = nil
	for t := 0; t < p.Threads; t++ {
		base := arena.Alloc(uint64(h.buckets) * 8)
		for b := 0; b < h.buckets; b++ {
			mem.Poke64(base+memory.Addr(b*8), 0)
		}
		h.tableBases = append(h.tableBases, base)
		h.arenas = append(h.arenas, arena.Sub(uint64(p.OpsPerThread+1)*memory.LineSize))
	}
}

func (h *Hashmap) bucketAddr(t int, b uint64) memory.Addr {
	return h.tableBases[t] + memory.Addr(b*8)
}

// Programs implements Workload.
func (h *Hashmap) Programs(p Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := rng(p, t)
			for i := 0; i < p.OpsPerThread; i++ {
				key := r.Uint64()
				b := hashKey(key) % uint64(h.buckets)
				bucket := h.bucketAddr(t, b)
				head := cpu.Load64(e, bucket)
				node := h.arenas[t].Alloc(hashNodeSize)
				cpu.Store64(e, node+offHashKey, key)
				cpu.Store64(e, node+offHashVal, uint64(i))
				cpu.Store64(e, node+offHashNext, head)
				cpu.Store64(e, node+offHashMagic, magicHashNode)
				barrier(e, p, node)
				cpu.Store64(e, bucket, node) //bbbvet:commit-store node
				barrier(e, p, bucket)
				volatileWork(e, t, h.volWork(), r)
			}
		}
	}
	return progs
}

// volWork sets the volatile:persistent store mix; it lands near
// Table IV's 6.0% P-stores (5 persisting stores per op).
func (h *Hashmap) volWork() int {
	return 78
}

// Check implements Workload: every reachable node is fully initialized and
// hangs from the bucket its key hashes to.
func (h *Hashmap) Check(mem *memory.Memory) error {
	for t := 0; t < h.threads; t++ {
		for b := 0; b < h.buckets; b++ {
			ptr := mem.Peek64(h.bucketAddr(t, uint64(b)))
			steps := 0
			for ptr != 0 {
				a := memory.Addr(ptr)
				if magic := mem.Peek64(a + offHashMagic); magic != magicHashNode {
					return fmt.Errorf("hashmap[%d]: bucket %d reaches node %#x with magic %#x (unpersisted node published)", t, b, ptr, magic)
				}
				key := mem.Peek64(a + offHashKey)
				if got := hashKey(key) % uint64(h.buckets); got != uint64(b) {
					return fmt.Errorf("hashmap[%d]: node %#x key %#x hashes to bucket %d, found in %d", t, ptr, key, got, b)
				}
				ptr = mem.Peek64(a + offHashNext)
				if steps++; steps > 1<<22 {
					return fmt.Errorf("hashmap[%d]: cycle in bucket %d", t, b)
				}
			}
		}
	}
	return nil
}

var _ Workload = (*Hashmap)(nil)
