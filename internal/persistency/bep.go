package persistency

import (
	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

// This file implements Buffered Epoch Persistency (BEP) with traditional
// *volatile* per-core persist buffers — the delegated-persist design the
// paper contrasts BBB against (§III-A: "traditional persist buffers are
// volatile as they lose content if power is lost", and require explicit
// epoch barriers because the PoV/PoP gap remains).
//
// Semantics implemented:
//
//   - Persisting stores enter the core's volatile persist buffer tagged
//     with the core's current epoch.
//   - Stores may coalesce only within the same epoch — coalescing across
//     an epoch boundary would reorder persists across the barrier.
//   - Entries drain to the NVMM WPQ strictly in epoch order: nothing from
//     epoch e+1 drains while epoch e still has entries.
//   - An epoch barrier is one cheap marker instruction (it waits only for
//     the core's store buffer, not for draining) — the buffered part.
//   - On a crash the buffers are LOST; only the WPQ survives. Durability
//     is therefore "some epoch prefix", which is exactly what epoch
//     persistency promises and why recovery code must be epoch-aware.
//
// Cross-core simplification (documented in DESIGN.md): when another core
// writes a buffered block, the victim buffer eagerly drains the block and
// every older entry before surrendering it, approximating DPO's ordering
// delegation without its timestamp machinery.

// vpbEntry is one volatile-persist-buffer record.
type vpbEntry struct {
	addr     memory.Addr
	data     [memory.LineSize]byte
	epoch    uint64
	draining bool
}

// vpb is one core's volatile persist buffer.
type vpb struct {
	coreID  int
	cap     int
	thresh  float64
	eng     *engine.Engine
	nvmm    *memctrl.Controller
	epoch   uint64
	entries []vpbEntry
	waiters []func()
	stats   *stats.Counters

	// Cached handles for the per-event counters; registration still
	// happens at first increment, so counter listings are unchanged.
	nCoalesced, nRejections, nAllocations stats.Lazy
	nEpochs, nDrains, nForcedDrains       stats.Lazy
	nCrashLost                            stats.Lazy
	occupancy                             stats.LazyGauge
}

func newVPB(coreID, capacity int, thresh float64, eng *engine.Engine, nvmm *memctrl.Controller) *vpb {
	v := &vpb{
		coreID: coreID, cap: capacity, thresh: thresh,
		eng: eng, nvmm: nvmm, stats: stats.NewCounters(),
	}
	v.nCoalesced = v.stats.Lazy("vpb.coalesced")
	v.nRejections = v.stats.Lazy("vpb.rejections")
	v.nAllocations = v.stats.Lazy("vpb.allocations")
	v.nEpochs = v.stats.Lazy("vpb.epochs")
	v.nDrains = v.stats.Lazy("vpb.drains")
	v.nForcedDrains = v.stats.Lazy("vpb.forced_drains")
	v.nCrashLost = v.stats.Lazy("vpb.crash_lost")
	v.occupancy = eng.Metrics.LazyGauge("vpb.occupancy")
	return v
}

func (v *vpb) counters() *stats.Counters { return v.stats }

func (v *vpb) find(addr memory.Addr) int {
	for i := len(v.entries) - 1; i >= 0; i-- {
		if v.entries[i].addr == addr {
			return i
		}
	}
	return -1
}

// canAccept: same-epoch resident blocks coalesce; otherwise a slot is
// needed.
func (v *vpb) canAccept(addr memory.Addr) bool {
	if i := v.find(addr); i >= 0 && v.entries[i].epoch == v.epoch && !v.entries[i].draining {
		return true
	}
	return len(v.entries) < v.cap
}

// put records a persisting store in the current epoch.
func (v *vpb) put(addr memory.Addr, data *[memory.LineSize]byte) bool {
	if i := v.find(addr); i >= 0 && v.entries[i].epoch == v.epoch && !v.entries[i].draining {
		v.entries[i].data = *data
		v.nCoalesced.Inc()
		v.eng.EmitTrace(trace.KindBufCoalesce, v.coreID, addr, uint64(len(v.entries)))
		return true
	}
	if len(v.entries) >= v.cap {
		v.nRejections.Inc()
		v.eng.EmitTrace(trace.KindBufReject, v.coreID, addr, uint64(len(v.entries)))
		return false
	}
	v.entries = append(v.entries, vpbEntry{addr: addr, data: *data, epoch: v.epoch})
	v.nAllocations.Inc()
	v.eng.EmitTrace(trace.KindBufAlloc, v.coreID, addr, uint64(len(v.entries)))
	v.occupancy.Sample(uint64(v.eng.Now()), v.coreID, uint64(len(v.entries)))
	v.maybeDrain()
	return true
}

func (v *vpb) waitSpace(fn func()) {
	if len(v.entries) < v.cap {
		v.eng.Schedule(0, fn)
		return
	}
	v.waiters = append(v.waiters, fn)
}

func (v *vpb) wake() {
	waiters := v.waiters
	v.waiters = nil
	for _, fn := range waiters {
		fn()
	}
}

func (v *vpb) epochBarrier() {
	v.epoch++
	v.nEpochs.Inc()
}

func (v *vpb) numDraining() int {
	n := 0
	for i := range v.entries {
		if v.entries[i].draining {
			n++
		}
	}
	return n
}

// drainCandidate returns the oldest non-draining entry of the minimum
// epoch, or -1. Ordering rule: an entry may drain only when no entry of an
// earlier epoch remains (draining ones of that epoch count as remaining
// until their write is accepted).
func (v *vpb) drainCandidate() int {
	if len(v.entries) == 0 {
		return -1
	}
	minEpoch := v.entries[0].epoch
	for i := range v.entries {
		if v.entries[i].epoch < minEpoch {
			minEpoch = v.entries[i].epoch
		}
	}
	for i := range v.entries {
		if v.entries[i].epoch == minEpoch && !v.entries[i].draining {
			return i
		}
	}
	return -1 // the whole minimum epoch is in flight
}

func (v *vpb) threshold() int { return int(float64(v.cap) * v.thresh) }

func (v *vpb) maybeDrain() {
	for len(v.entries)-v.numDraining() > v.threshold() {
		i := v.drainCandidate()
		if i < 0 {
			return
		}
		v.startDrain(i)
	}
}

func (v *vpb) startDrain(i int) {
	v.entries[i].draining = true
	addr := v.entries[i].addr
	data := v.entries[i].data
	v.nDrains.Inc()
	v.eng.EmitTrace(trace.KindBufDrain, v.coreID, addr, uint64(len(v.entries)))
	v.nvmm.Write(addr, data, func() {
		for j := range v.entries {
			if v.entries[j].addr == addr && v.entries[j].draining {
				v.entries = append(v.entries[:j], v.entries[j+1:]...)
				v.occupancy.Sample(uint64(v.eng.Now()), v.coreID, uint64(len(v.entries)))
				break
			}
		}
		v.wake()
		v.maybeDrain()
	})
}

// drainThrough initiates drains in buffer (FIFO/epoch) order until addr's
// newest entry is on its way to the WPQ. Because the controller applies a
// write's data at the moment Write is called, the WPQ observes these in
// initiation order, preserving epoch order even past in-flight drains.
// Used when another core takes the block or the LLC evicts it.
func (v *vpb) drainThrough(addr memory.Addr) {
	for {
		last := v.find(addr)
		if last < 0 || v.entries[last].draining {
			return
		}
		idx := -1
		for i := 0; i <= last; i++ {
			if !v.entries[i].draining {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		v.nForcedDrains.Inc()
		v.eng.EmitTrace(trace.KindBufForcedDrain, v.coreID, v.entries[idx].addr, uint64(len(v.entries)))
		v.startDrain(idx)
	}
}

// crashLoss discards the buffer, returning how many entries were lost —
// this is the volatility the paper's battery fixes.
func (v *vpb) crashLoss() int {
	n := len(v.entries)
	for i := range v.entries {
		v.eng.EmitTrace(trace.KindBufCrashLost, v.coreID, v.entries[i].addr, 0)
	}
	v.entries = nil
	v.nCrashLost.Add(uint64(n))
	return n
}
