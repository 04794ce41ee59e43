package persistency

import (
	"bbb/internal/coherence"
	"bbb/internal/cpu"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
	"bbb/internal/trace"
)

// DrainReport records what flush-on-fail moved to NVMM at a crash; it feeds
// the energy model (bytes drained determines battery demand) and the
// recovery checks.
type DrainReport struct {
	Scheme     Scheme
	WPQLines   int
	BufLines   int // bbPB entries (BBB modes)
	CacheLines int // dirty persistent cache lines (eADR, NVCache)
	SBStores   int // battery-backed store-buffer entries
	// LostLines counts buffered persists discarded by a volatile persist
	// buffer at the crash (BEP) — durability the battery would have saved.
	LostLines int
}

// Lines returns the total number of cache-line-sized transfers the battery
// had to pay for (store-buffer entries count as one line each, the paper's
// worst case).
func (r DrainReport) Lines() int {
	return r.WPQLines + r.BufLines + r.CacheLines + r.SBStores
}

// Bytes returns the drained payload in bytes.
func (r DrainReport) Bytes() int { return r.Lines() * memory.LineSize }

// VPBEntry is one still-buffered volatile-persist-buffer record (BEP), as
// seen by the crash-image model checker's recorder. Entries whose drain is
// already in flight are excluded: the controller applies a write's data the
// moment Write is called, so an in-flight drain has already reached the WPQ
// and is part of the deterministic post-crash image.
type VPBEntry struct {
	Addr  memory.Addr
	Data  [memory.LineSize]byte
	Epoch uint64
}

// VPBSnapshot returns, per core, a copy of the volatile persist-buffer
// entries still pending at this instant, in allocation order (epochs
// non-decreasing). Non-BEP schemes return nil. These are exactly the writes
// a crash loses under the deterministic drain but that real BEP hardware
// may have drained further: any epoch-downward-closed subset of them is a
// legal extra survival set (epoch prefix plus same-epoch reorder).
func (m *Model) VPBSnapshot() [][]VPBEntry {
	if m.Scheme != BEP {
		return nil
	}
	out := make([][]VPBEntry, len(m.vpbs))
	for c, v := range m.vpbs {
		for i := range v.entries {
			if v.entries[i].draining {
				continue
			}
			out[c] = append(out[c], VPBEntry{
				Addr:  v.entries[i].addr,
				Data:  v.entries[i].data,
				Epoch: v.entries[i].epoch,
			})
		}
	}
	return out
}

// BufferedLines counts the lines currently resident in the scheme's
// battery-backed persist buffers (bbPB organizations). They are inside the
// persistence domain — all of them survive every crash — so the recorder
// reports them as domain-resident rather than enumerable.
func (m *Model) BufferedLines() int {
	n := 0
	for _, b := range m.Buffers {
		b.ForEachEntry(func(memory.Addr, uint64, bool) { n++ })
	}
	return n
}

// CrashDrain performs the scheme's flush-on-fail at the instant of a crash,
// mutating the NVMM image exactly as the battery-powered drain would and
// emptying every drained source. The simulation must already be stopped; no
// simulated time passes.
func (m *Model) CrashDrain(cores []*cpu.Core, h *coherence.Hierarchy, nvmm *memctrl.Controller, mem *memory.Memory) DrainReport {
	return m.flushOnFail(cores, h, nvmm, mem, true)
}

// SnapshotDrain computes the same flush-on-fail into img, a copy of the
// machine's durable image, and returns the same report, without touching
// the machine: no WPQ, persist buffer or store buffer is emptied, no counter
// moves and no trace event is emitted, so the run can continue as if no
// snapshot had been taken.
func (m *Model) SnapshotDrain(cores []*cpu.Core, h *coherence.Hierarchy, nvmm *memctrl.Controller, img *memory.Memory) DrainReport {
	return m.flushOnFail(cores, h, nvmm, img, false)
}

// flushOnFail is the one flush-on-fail routine behind CrashDrain (crash)
// and SnapshotDrain (!crash). A crash writes into the machine's own image
// (mem), empties each drained source, counts it (*.crash_drained,
// vpb.crash_lost) and traces it (KindCrashDrain); a snapshot only writes
// the same lines into mem, a copy.
//
// Freshness ordering: the WPQ holds the oldest copies (earlier drains and
// writebacks), bbPB entries and cache lines are fresher, and battery-backed
// store-buffer entries are freshest, so stages apply in that order.
func (m *Model) flushOnFail(cores []*cpu.Core, h *coherence.Hierarchy, nvmm *memctrl.Controller, mem *memory.Memory, crash bool) DrainReport {
	rep := DrainReport{Scheme: m.Scheme}
	layout := mem.Layout()

	// Stage 1: the WPQ is inside the persistence domain for every scheme
	// (ADR baseline, footnote 1 of the paper). A crash drains it into the
	// controller's image, which is mem.
	if crash {
		rep.WPQLines = nvmm.CrashDrain()
	} else {
		rep.WPQLines = nvmm.FlushPending(mem.WriteLine)
	}

	// Stage 2: the scheme's own persistence domain above the controller.
	switch m.Scheme {
	case PMEM:
		// Nothing: caches and store buffers are volatile.
	case EADR, NVCache:
		// eADR: flush-on-fail drains every dirty persistent line on
		// battery. NVCache: the NVM cells retain the same lines without a
		// battery; flushing them to the image models that retention.
		h.ForEachDirtyLine(func(la memory.Addr, persistent bool, data *[memory.LineSize]byte) {
			if !persistent {
				return // DRAM-bound dirty lines are simply lost state
			}
			mem.WriteLine(la, data)
			if crash {
				m.eng.EmitTrace(trace.KindCrashDrain, -1, uint64(la), 0)
			}
			rep.CacheLines++
		})
	case BBB, BBBProc:
		for _, b := range m.Buffers {
			if crash {
				rep.BufLines += b.CrashDrain(mem.WriteLine)
			} else {
				rep.BufLines += b.Flush(mem.WriteLine)
			}
		}
	case BEP:
		// Traditional persist buffers are volatile: their contents are
		// simply gone. Only the WPQ prefix survived.
		for _, v := range m.vpbs {
			if crash {
				rep.LostLines += v.crashLoss()
			} else {
				rep.LostLines += len(v.entries)
			}
		}
	}

	// Stage 3: battery-backed store buffers (§III-C) drain last — they hold
	// the youngest committed stores. Each core's own flag is consulted so
	// the SB-battery ablation behaves coherently.
	for _, c := range cores {
		if !c.BatteryBackedSB() {
			continue
		}
		if crash {
			rep.SBStores += c.CrashDrainSB(mem.PeekLine, mem.WriteLine, layout.Persistent)
		} else {
			rep.SBStores += c.FlushSB(mem.PeekLine, mem.WriteLine, layout.Persistent)
		}
	}
	return rep
}
