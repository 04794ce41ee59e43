package workload

import (
	"fmt"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
)

// WAL is an extra workload modelling the write-ahead-logging pattern of the
// persistent-memory systems the paper cites (NVWAL and friends): each
// thread appends fixed-size records to a private persistent log and then
// publishes them by bumping a tail counter.
//
// The ordering contract is the classic one: the record's payload (checksum
// last) must persist before the tail that makes it visible to recovery.
// Under BBB the natural code (payload stores, then tail store) is already
// correct; under the PMEM baseline the same code needs a barrier between
// record and tail, and omitting it lets recovery read a published record
// whose payload never persisted — caught by the checksum.
//
// Traffic profile: pure sequential streaming persists (no reuse at all)
// plus one maximally hot tail line per thread.
type WAL struct {
	headersBase memory.Addr
	logsBase    []memory.Addr
	threads     int
	capacity    int
}

// NewWAL builds the write-ahead-log workload.
func NewWAL() *WAL { return &WAL{} }

// Name implements Workload.
func (w *WAL) Name() string { return "wal" }

// Description implements Workload.
func (w *WAL) Description() string {
	return "sequential append to a persistent write-ahead log (NVWAL pattern)"
}

// PaperPStores implements Workload; not a Table IV row.
func (w *WAL) PaperPStores() float64 { return 0 }

const (
	walMagic   = 0xB1B0_0007
	offWALSeq  = 0
	offWALTag  = 8
	offWALBody = 16 // five payload words
	offWALSum  = 56
)

func (w *WAL) header(t int) memory.Addr {
	return w.headersBase + memory.Addr(t)*memory.LineSize
}

func (w *WAL) record(t, i int) memory.Addr {
	return w.logsBase[t] + memory.Addr(i)*memory.LineSize
}

// Setup implements Workload: a tail header and a record region per thread.
func (w *WAL) Setup(mem *memory.Memory, arena *palloc.Arena, p Params) {
	w.threads = p.Threads
	w.capacity = p.OpsPerThread
	w.headersBase = arena.Alloc(uint64(p.Threads) * memory.LineSize)
	w.logsBase = nil
	for t := 0; t < p.Threads; t++ {
		mem.Poke64(w.header(t), 0) // tail = 0
		w.logsBase = append(w.logsBase, arena.Alloc(uint64(p.OpsPerThread+1)*memory.LineSize))
	}
}

// walChecksum folds the record fields the way recovery will re-derive them.
func walChecksum(seq, tag uint64, body [5]uint64) uint64 {
	h := seq*0x9E3779B97F4A7C15 ^ tag
	for _, b := range body {
		h = (h ^ b) * 0x100000001B3
	}
	return h
}

// Programs implements Workload.
func (w *WAL) Programs(p Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := rng(p, t)
			tail := w.header(t)
			for i := 0; i < p.OpsPerThread; i++ {
				rec := w.record(t, i)
				seq := uint64(i) + 1
				tag := uint64(t)<<32 | walMagic
				var body [5]uint64
				for j := range body {
					body[j] = r.Uint64()
					cpu.Store64(e, rec+offWALBody+memory.Addr(j*8), body[j])
				}
				cpu.Store64(e, rec+offWALSeq, seq)
				cpu.Store64(e, rec+offWALTag, tag)
				cpu.Store64(e, rec+offWALSum, walChecksum(seq, tag, body))
				barrier(e, p, rec)        // record before tail (the WAL contract)
				cpu.Store64(e, tail, seq) //bbbvet:commit-store rec
				barrier(e, p, tail)
				volatileWork(e, t, w.volWork(), r)
			}
		}
	}
	return progs
}

func (w *WAL) volWork() int {
	return 12
}

// Check implements Workload: every record the durable tail publishes must
// be fully intact (checksum and sequence), exactly what log recovery
// replays.
func (w *WAL) Check(mem *memory.Memory) error {
	for t := 0; t < w.threads; t++ {
		tail := mem.Peek64(w.header(t))
		if tail > uint64(w.capacity) {
			return fmt.Errorf("wal[%d]: tail %d beyond capacity %d", t, tail, w.capacity)
		}
		for i := uint64(0); i < tail; i++ {
			rec := w.record(t, int(i))
			seq := mem.Peek64(rec + offWALSeq)
			tag := mem.Peek64(rec + offWALTag)
			var body [5]uint64
			for j := range body {
				body[j] = mem.Peek64(rec + offWALBody + memory.Addr(j*8))
			}
			sum := mem.Peek64(rec + offWALSum)
			if seq != i+1 {
				return fmt.Errorf("wal[%d]: record %d has seq %d (tail persisted before record — the WAL ordering bug)", t, i, seq)
			}
			if tag&0xFFFFFFFF != walMagic || tag>>32 != uint64(t) {
				return fmt.Errorf("wal[%d]: record %d has tag %#x", t, i, tag)
			}
			if sum != walChecksum(seq, tag, body) {
				return fmt.Errorf("wal[%d]: record %d checksum mismatch (torn record published)", t, i)
			}
		}
	}
	return nil
}

var _ Workload = (*WAL)(nil)
