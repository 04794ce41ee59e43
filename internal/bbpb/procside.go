package bbpb

import (
	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

// ProcSide is the processor-side persist-buffer organization (§III-B, §V-C):
// entries track individual persisting stores, must drain in program order,
// and coalesce only when the incoming store hits the same block as the most
// recently allocated entry. Because entries are not yet in the persistence
// domain in the traditional design, reordering/coalescing beyond that would
// violate persist ordering — this is what costs it ~2.8x more NVMM writes.
//
// Like the paper's BBB-side comparison we still battery-back it (so crash
// draining works and strict persistency holds); the organization is what
// differs, not the battery.
type ProcSide struct {
	cfg      Config
	coreID   int
	eng      *engine.Engine
	nvmm     *memctrl.Controller
	entries  []entry // strict program order
	seq      uint64  // last allocation sequence number handed out
	draining bool    // head drain in flight (in-order: one at a time)
	waiters  []func()
	stats    *stats.Counters

	// Cached handles for the per-event counters, as in Buffer.
	nCoalesced, nRejections, nAllocations stats.Lazy
	nMigratedOut, nDrains, nForcedDrains  stats.Lazy
	nCrashDrained                         stats.Lazy
	occupancy                             stats.LazyGauge
	residency                             stats.LazyHist
}

var _ PersistBuffer = (*ProcSide)(nil)

// NewProcSide builds a processor-side persist buffer for one core.
func NewProcSide(cfg Config, coreID int, eng *engine.Engine, nvmm *memctrl.Controller) *ProcSide {
	if cfg.Entries <= 0 {
		panic("bbpb: Entries must be positive")
	}
	p := &ProcSide{cfg: cfg, coreID: coreID, eng: eng, nvmm: nvmm, stats: stats.NewCounters()}
	p.nCoalesced = p.stats.Lazy("bbpb.coalesced")
	p.nRejections = p.stats.Lazy("bbpb.rejections")
	p.nAllocations = p.stats.Lazy("bbpb.allocations")
	p.nMigratedOut = p.stats.Lazy("bbpb.migrated_out")
	p.nDrains = p.stats.Lazy("bbpb.drains")
	p.nForcedDrains = p.stats.Lazy("bbpb.forced_drains")
	p.nCrashDrained = p.stats.Lazy("bbpb.crash_drained")
	p.occupancy = eng.Metrics.LazyGauge("bbpb.occupancy")
	p.residency = eng.Metrics.LazyHist("bbpb.residency")
	return p
}

// Counters returns the buffer's statistics counters.
func (p *ProcSide) Counters() *stats.Counters { return p.stats }

// Put implements PersistBuffer. Only a store to the same block as the
// youngest entry may coalesce (two subsequent stores to one block, §III-B).
func (p *ProcSide) Put(addr memory.Addr, data *[memory.LineSize]byte) bool {
	if n := len(p.entries); n > 0 && p.entries[n-1].addr == addr && !p.entries[n-1].draining {
		p.entries[n-1].data = *data
		p.nCoalesced.Inc()
		p.eng.EmitTrace(trace.KindBufCoalesce, p.coreID, addr, uint64(len(p.entries)))
		return true
	}
	if len(p.entries) >= p.cfg.Entries {
		p.nRejections.Inc()
		p.eng.EmitTrace(trace.KindBufReject, p.coreID, addr, uint64(len(p.entries)))
		return false
	}
	p.seq++
	p.entries = append(p.entries, entry{addr: addr, seq: p.seq, alloc: p.eng.Now(), data: *data})
	p.nAllocations.Inc()
	p.eng.EmitTrace(trace.KindBufAlloc, p.coreID, addr, uint64(len(p.entries)))
	p.occupancy.Sample(uint64(p.eng.Now()), p.coreID, uint64(len(p.entries)))
	p.maybeDrain()
	return true
}

// CanAccept implements PersistBuffer: only a store hitting the youngest
// entry's block may coalesce; otherwise a free entry is required.
func (p *ProcSide) CanAccept(addr memory.Addr) bool {
	if n := len(p.entries); n > 0 && p.entries[n-1].addr == addr && !p.entries[n-1].draining {
		return true
	}
	return len(p.entries) < p.cfg.Entries
}

// Has implements PersistBuffer.
func (p *ProcSide) Has(addr memory.Addr) bool {
	for i := range p.entries {
		if p.entries[i].addr == addr {
			return true
		}
	}
	return false
}

// Remove implements PersistBuffer. In-order draining means removing an
// interior entry would reorder persists; instead the youngest matching entry
// is surrendered and any older entries for the block drain normally (they
// hold older, still order-consistent data).
func (p *ProcSide) Remove(addr memory.Addr) ([memory.LineSize]byte, bool) {
	for i := len(p.entries) - 1; i >= 0; i-- {
		if p.entries[i].addr == addr && !p.entries[i].draining {
			data := p.entries[i].data
			p.entries = append(p.entries[:i], p.entries[i+1:]...)
			p.nMigratedOut.Inc()
			p.eng.EmitTrace(trace.KindBufMigrate, p.coreID, addr, 0)
			p.wakeOne()
			return data, true
		}
	}
	return [memory.LineSize]byte{}, false
}

func (p *ProcSide) wakeOne() {
	if len(p.waiters) > 0 && len(p.entries) < p.cfg.Entries {
		fn := p.waiters[0]
		p.waiters = p.waiters[1:]
		p.eng.Schedule(0, fn)
	}
}

// WaitSpace implements PersistBuffer.
func (p *ProcSide) WaitSpace(fn func()) {
	if len(p.entries) < p.cfg.Entries {
		p.eng.Schedule(0, fn)
		return
	}
	p.waiters = append(p.waiters, fn)
}

// Occupancy implements PersistBuffer.
func (p *ProcSide) Occupancy() int { return len(p.entries) }

// Cap implements PersistBuffer.
func (p *ProcSide) Cap() int { return p.cfg.Entries }

// InOrder implements PersistBuffer: processor-side entries drain strictly
// in program order, one at a time.
func (p *ProcSide) InOrder() bool { return true }

// ForEachEntry implements PersistBuffer.
func (p *ProcSide) ForEachEntry(fn func(addr memory.Addr, seq uint64, draining bool)) {
	for i := range p.entries {
		fn(p.entries[i].addr, p.entries[i].seq, p.entries[i].draining)
	}
}

func (p *ProcSide) threshold() int {
	return int(float64(p.cfg.Entries) * p.cfg.DrainThreshold)
}

// maybeDrain drains the head entry whenever occupancy exceeds the threshold.
// Ordering requires one in-flight drain at a time.
func (p *ProcSide) maybeDrain() {
	if p.draining || len(p.entries) <= p.threshold() {
		return
	}
	p.drainHead(nil)
}

func (p *ProcSide) drainHead(done func()) {
	p.draining = true
	p.entries[0].draining = true
	addr, data := p.entries[0].addr, p.entries[0].data
	allocCycle := p.entries[0].alloc
	p.nDrains.Inc()
	p.eng.EmitTrace(trace.KindBufDrain, p.coreID, addr, uint64(len(p.entries)))
	p.nvmm.Write(addr, data, func() {
		p.draining = false
		if len(p.entries) > 0 && p.entries[0].addr == addr && p.entries[0].draining {
			p.entries = p.entries[1:]
			p.residency.Observe(uint64(p.eng.Now() - allocCycle))
			p.occupancy.Sample(uint64(p.eng.Now()), p.coreID, uint64(len(p.entries)))
			p.wakeOne()
		}
		p.maybeDrain()
		if done != nil {
			done()
		}
	})
}

// ForceDrain implements PersistBuffer. In-order draining means everything up
// to and including the youngest entry for addr must drain first, so the head
// is drained repeatedly until no entry for addr remains.
func (p *ProcSide) ForceDrain(addr memory.Addr, done func()) {
	if !p.Has(addr) {
		p.eng.Schedule(0, done)
		return
	}
	p.nForcedDrains.Inc()
	p.eng.EmitTrace(trace.KindBufForcedDrain, p.coreID, addr, uint64(len(p.entries)))
	var step func()
	step = func() {
		if !p.Has(addr) {
			done()
			return
		}
		if p.draining {
			// An in-flight head drain must land first; check again after
			// the WPQ accept latency.
			p.eng.Schedule(p.nvmm.Config().WPQAcceptLat, step)
			return
		}
		p.drainHead(step)
	}
	step()
}

// CrashDrain implements PersistBuffer; entries flush in program order.
func (p *ProcSide) CrashDrain(write func(memory.Addr, *[memory.LineSize]byte)) int {
	n := p.Flush(func(a memory.Addr, data *[memory.LineSize]byte) {
		write(a, data)
		p.eng.EmitTrace(trace.KindCrashDrain, p.coreID, a, 0)
	})
	p.entries = p.entries[:0]
	p.nCrashDrained.Add(uint64(n))
	return n
}

// Flush implements PersistBuffer.
func (p *ProcSide) Flush(write func(memory.Addr, *[memory.LineSize]byte)) int {
	for i := range p.entries {
		write(p.entries[i].addr, &p.entries[i].data)
	}
	return len(p.entries)
}
