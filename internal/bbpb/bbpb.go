// Package bbpb implements the paper's central contribution: the per-core
// battery-backed persist buffer (bbPB) that sits next to the L1D and serves
// as the point of persistency, closing the PoV/PoP gap.
//
// Two organizations are provided (§III-B):
//
//   - Buffer: the memory-side organization the paper adopts. Entries are
//     cache blocks already inside the persistence domain, so stores coalesce
//     freely, entries drain out of order (FCFS here, per §III-F), and drains
//     happen lazily above an occupancy threshold.
//
//   - ProcSide: the processor-side alternative used as a comparison point in
//     §V-C. Entries are per-store, must drain in program order, and may only
//     coalesce when consecutive stores hit the same block — which is why it
//     writes NVMM ~2.8x more.
//
// Both are battery backed: CrashDrain flushes every entry (including ones
// mid-flight) to the durable image, modelling flush-on-fail.
package bbpb

import (
	"fmt"

	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

// Config sizes a persist buffer.
type Config struct {
	Entries        int
	DrainThreshold float64 // start draining when occupancy exceeds this fraction
}

// DefaultConfig is the paper's default: 32 entries, 75% drain threshold.
func DefaultConfig() Config { return Config{Entries: 32, DrainThreshold: 0.75} }

// PersistBuffer is the behaviour the rest of the system depends on, so the
// memory-side and processor-side organizations are interchangeable.
type PersistBuffer interface {
	// Put records a persisting store of the full (already updated) line
	// data. It reports false when the buffer is full and cannot accept the
	// store, in which case the core must stall and retry; use WaitSpace to
	// learn when to retry.
	Put(addr memory.Addr, data *[memory.LineSize]byte) bool
	// CanAccept reports whether a Put for addr would succeed right now,
	// letting a store reserve its slot before entering the coherence
	// transaction.
	CanAccept(addr memory.Addr) bool
	// Has reports whether addr currently has an entry.
	Has(addr memory.Addr) bool
	// Remove deletes addr's entry without draining it, returning its data.
	// Used when a block migrates to another core's bbPB on a remote write
	// (Fig. 6 a/b): the requester becomes responsible for draining.
	Remove(addr memory.Addr) ([memory.LineSize]byte, bool)
	// ForceDrain immediately drains addr's entry (bypassing the threshold)
	// and calls done once the line is durable; used to maintain LLC dirty
	// inclusion when the LLC evicts the block. done fires immediately if
	// the entry is absent.
	ForceDrain(addr memory.Addr, done func())
	// WaitSpace registers fn to run once after the next entry frees up.
	WaitSpace(fn func())
	// Occupancy reports the number of live entries.
	Occupancy() int
	// CrashDrain flushes every entry to the durable image via write and
	// empties the buffer, returning the number of lines drained. Entries
	// drain in the organization's required order.
	CrashDrain(write func(memory.Addr, *[memory.LineSize]byte)) int
	// Flush writes every entry via write in CrashDrain's order without
	// removing it, counting it or tracing it, and returns how many it
	// wrote: the drain a live crash snapshot computes into a copy.
	Flush(write func(memory.Addr, *[memory.LineSize]byte)) int
	// Counters exposes the buffer's statistics.
	Counters() *stats.Counters

	// Cap reports the buffer's entry capacity (Config.Entries).
	Cap() int
	// InOrder reports whether the organization must drain in program order
	// (processor-side) rather than freely (memory-side).
	InOrder() bool
	// ForEachEntry calls fn for every live entry in allocation order with
	// its block address, allocation sequence number (strictly increasing
	// over the buffer's lifetime) and whether a drain is in flight.
	// Read-only; the runtime invariant checker audits buffer state with it.
	ForEachEntry(fn func(addr memory.Addr, seq uint64, draining bool))
}

type entry struct {
	addr     memory.Addr
	seq      uint64
	alloc    engine.Cycle // cycle the entry was allocated, for residency stats
	data     [memory.LineSize]byte
	draining bool
}

// Buffer is the memory-side bbPB.
type Buffer struct {
	cfg     Config
	coreID  int
	eng     *engine.Engine
	nvmm    *memctrl.Controller
	entries []entry // FIFO allocation order for FCFS draining
	// addrs mirrors entries' block addresses index-for-index. find is the
	// hottest query in the persist path (every store probes the buffer), and
	// scanning an 8-byte-stride address slice is far cheaper than striding
	// the ~100-byte entry structs.
	addrs   []memory.Addr
	seq     uint64 // last allocation sequence number handed out
	waiters []func()
	stats   *stats.Counters

	// Cached handles for the per-event counters; registration still happens
	// at first increment, so counter listings are unchanged.
	nCoalesced, nRejections, nAllocations, nMigratedOut stats.Lazy
	nDrains, nDrainAfterMigration, nForcedDrains        stats.Lazy
	nCrashDrained                                       stats.Lazy

	drainFree *drainOp // pooled drain completions
}

// drainOp is a pooled WPQ-write completion for one in-flight drain,
// replacing the per-drain capturing closure.
type drainOp struct {
	b     *Buffer
	next  *drainOp
	addr  memory.Addr
	done  func()
	runFn func()
}

func (b *Buffer) getDrainOp() *drainOp {
	op := b.drainFree
	if op == nil {
		op = &drainOp{b: b}
		op.runFn = func() {
			buf := op.b
			addr, done := op.addr, op.done
			op.done = nil
			op.next = buf.drainFree
			buf.drainFree = op
			buf.finishDrain(addr)
			if done != nil {
				done()
			}
		}
		return op
	}
	b.drainFree = op.next
	op.next = nil
	return op
}

var _ PersistBuffer = (*Buffer)(nil)

// New builds a memory-side bbPB for one core, draining into the NVMM
// controller's WPQ.
func New(cfg Config, coreID int, eng *engine.Engine, nvmm *memctrl.Controller) *Buffer {
	if cfg.Entries <= 0 {
		panic("bbpb: Entries must be positive")
	}
	b := &Buffer{cfg: cfg, coreID: coreID, eng: eng, nvmm: nvmm, stats: stats.NewCounters()}
	b.nCoalesced = b.stats.Lazy("bbpb.coalesced")
	b.nRejections = b.stats.Lazy("bbpb.rejections")
	b.nAllocations = b.stats.Lazy("bbpb.allocations")
	b.nMigratedOut = b.stats.Lazy("bbpb.migrated_out")
	b.nDrains = b.stats.Lazy("bbpb.drains")
	b.nDrainAfterMigration = b.stats.Lazy("bbpb.drain_after_migration")
	b.nForcedDrains = b.stats.Lazy("bbpb.forced_drains")
	b.nCrashDrained = b.stats.Lazy("bbpb.crash_drained")
	return b
}

// Counters returns the buffer's statistics counters.
func (b *Buffer) Counters() *stats.Counters { return b.stats }

func (b *Buffer) find(addr memory.Addr) int {
	for i, a := range b.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// Put implements PersistBuffer. Coalescing onto an existing entry always
// succeeds, even when the buffer is full — that is the memory-side
// organization's key advantage.
func (b *Buffer) Put(addr memory.Addr, data *[memory.LineSize]byte) bool {
	if i := b.find(addr); i >= 0 && !b.entries[i].draining {
		b.entries[i].data = *data
		b.nCoalesced.Inc()
		b.eng.EmitTrace(trace.KindBufCoalesce, b.coreID, addr, uint64(len(b.entries)))
		return true
	}
	if len(b.entries) >= b.cfg.Entries {
		b.nRejections.Inc()
		b.eng.EmitTrace(trace.KindBufReject, b.coreID, addr, uint64(len(b.entries)))
		return false
	}
	b.seq++
	b.entries = append(b.entries, entry{addr: addr, seq: b.seq, alloc: b.eng.Now(), data: *data})
	b.addrs = append(b.addrs, addr)
	b.nAllocations.Inc()
	b.eng.EmitTrace(trace.KindBufAlloc, b.coreID, addr, uint64(len(b.entries)))
	b.eng.Metrics.Sample("bbpb.occupancy", uint64(b.eng.Now()), b.coreID, uint64(len(b.entries)))
	b.maybeDrain()
	return true
}

// Has implements PersistBuffer.
func (b *Buffer) Has(addr memory.Addr) bool { return b.find(addr) >= 0 }

// CanAccept implements PersistBuffer: a resident block coalesces even when
// the buffer is full; otherwise a free entry is required.
func (b *Buffer) CanAccept(addr memory.Addr) bool {
	if i := b.find(addr); i >= 0 && !b.entries[i].draining {
		return true
	}
	return len(b.entries) < b.cfg.Entries
}

// Remove implements PersistBuffer.
func (b *Buffer) Remove(addr memory.Addr) ([memory.LineSize]byte, bool) {
	i := b.find(addr)
	if i < 0 {
		return [memory.LineSize]byte{}, false
	}
	data := b.entries[i].data
	b.deleteAt(i)
	b.nMigratedOut.Inc()
	b.eng.EmitTrace(trace.KindBufMigrate, b.coreID, addr, 0)
	return data, true
}

func (b *Buffer) deleteAt(i int) {
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	b.addrs = append(b.addrs[:i], b.addrs[i+1:]...)
	b.eng.Metrics.Sample("bbpb.occupancy", uint64(b.eng.Now()), b.coreID, uint64(len(b.entries)))
	b.wakeOne()
}

func (b *Buffer) wakeOne() {
	if len(b.waiters) > 0 && len(b.entries) < b.cfg.Entries {
		fn := b.waiters[0]
		b.waiters = b.waiters[1:]
		b.eng.Schedule(0, fn)
	}
}

// WaitSpace implements PersistBuffer.
func (b *Buffer) WaitSpace(fn func()) {
	if len(b.entries) < b.cfg.Entries {
		b.eng.Schedule(0, fn)
		return
	}
	b.waiters = append(b.waiters, fn)
}

// Occupancy implements PersistBuffer.
func (b *Buffer) Occupancy() int { return len(b.entries) }

// Cap implements PersistBuffer.
func (b *Buffer) Cap() int { return b.cfg.Entries }

// InOrder implements PersistBuffer: memory-side entries drain freely.
func (b *Buffer) InOrder() bool { return false }

// ForEachEntry implements PersistBuffer.
func (b *Buffer) ForEachEntry(fn func(addr memory.Addr, seq uint64, draining bool)) {
	for i := range b.entries {
		fn(b.entries[i].addr, b.entries[i].seq, b.entries[i].draining)
	}
}

func (b *Buffer) threshold() int {
	return int(float64(b.cfg.Entries) * b.cfg.DrainThreshold)
}

func (b *Buffer) numDraining() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].draining {
			n++
		}
	}
	return n
}

// maybeDrain starts FCFS drains while the occupancy projected after
// in-flight drains still exceeds the threshold (§III-F).
func (b *Buffer) maybeDrain() {
	for len(b.entries)-b.numDraining() > b.threshold() {
		i := b.oldestNotDraining()
		if i < 0 {
			return
		}
		b.startDrain(i, nil)
	}
}

func (b *Buffer) oldestNotDraining() int {
	for i := range b.entries {
		if !b.entries[i].draining {
			return i
		}
	}
	return -1
}

// startDrain writes entry i to the NVMM WPQ; done (optional) fires when the
// line is durable.
func (b *Buffer) startDrain(i int, done func()) {
	b.entries[i].draining = true
	addr, data := b.entries[i].addr, b.entries[i].data
	b.nDrains.Inc()
	b.eng.EmitTrace(trace.KindBufDrain, b.coreID, addr, uint64(len(b.entries)))
	op := b.getDrainOp()
	op.addr, op.done = addr, done
	b.nvmm.Write(addr, data, op.runFn)
}

func (b *Buffer) finishDrain(addr memory.Addr) {
	for i := range b.entries {
		if b.entries[i].addr == addr && b.entries[i].draining {
			b.eng.Metrics.Observe("bbpb.residency", uint64(b.eng.Now()-b.entries[i].alloc))
			b.deleteAt(i)
			b.maybeDrain()
			return
		}
	}
	// Entry migrated out while the drain was in flight; nothing to delete.
	b.nDrainAfterMigration.Inc()
}

// ForceDrain implements PersistBuffer.
func (b *Buffer) ForceDrain(addr memory.Addr, done func()) {
	i := b.find(addr)
	if i < 0 {
		b.eng.Schedule(0, done)
		return
	}
	if b.entries[i].draining {
		// Already on its way to the WPQ; by the time the in-flight write is
		// accepted the line is durable, so piggyback on a zero-cost event
		// scheduled behind the WPQ accept latency.
		b.eng.Schedule(b.nvmm.Config().WPQAcceptLat, done)
		return
	}
	b.nForcedDrains.Inc()
	b.eng.EmitTrace(trace.KindBufForcedDrain, b.coreID, addr, uint64(len(b.entries)))
	b.startDrain(i, done)
}

// CrashDrain implements PersistBuffer. Memory-side entries may drain in any
// order; allocation order is used.
func (b *Buffer) CrashDrain(write func(memory.Addr, *[memory.LineSize]byte)) int {
	n := b.Flush(func(a memory.Addr, data *[memory.LineSize]byte) {
		write(a, data)
		b.eng.EmitTrace(trace.KindCrashDrain, b.coreID, a, 0)
	})
	b.entries = b.entries[:0]
	b.addrs = b.addrs[:0]
	b.nCrashDrained.Add(uint64(n))
	return n
}

// Flush implements PersistBuffer.
func (b *Buffer) Flush(write func(memory.Addr, *[memory.LineSize]byte)) int {
	for i := range b.entries {
		write(b.entries[i].addr, &b.entries[i].data)
	}
	return len(b.entries)
}

func (b *Buffer) String() string {
	return fmt.Sprintf("bbPB[core %d: %d/%d entries]", b.coreID, len(b.entries), b.cfg.Entries)
}
