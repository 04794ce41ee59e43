// Package crashmc is the crash-image model checker: beyond the one durable
// image the deterministic flush-on-fail produces, it enumerates *every*
// durable image a power failure at that cycle may leave behind under the
// scheme's persistency model, and runs the workload's recovery checker
// against each. Bounded to one image per crash point (Bounds.MaxImages 1)
// it is plain crash injection: only the flush-on-fail image is checked.
//
// The paper's programmability argument (§II-A, §III-D) is about exactly
// this set: under the PMEM baseline the caches may have written back any
// subset of dirty persistent lines before the crash, so the reachable
// crash-state space is exponential and the Figure 2 bug hides in one of
// its corners; under BBB the battery drains everything in the persistence
// path, so the set collapses to a single image and persist order equals
// program order. crashmc turns that claim from "checked at sampled points"
// into "checked over the reachable crash-state space".
//
// Three stages:
//
//   - the recorder (this file) captures, at one crash cycle, the durable
//     base image plus the pending persistence-domain writes and each
//     write's survival class;
//   - the enumerator (enumerate.go) materializes every legal survival
//     set within configurable bounds through a per-record line table,
//     deduplicating equivalent images exactly by each line's value class
//     (a canonical SHA-256 is computed only for the images it reports);
//   - the validator (run.go) checks every distinct image with the
//     workload's recovery checker and minimizes the surviving-write set
//     of the first violation into a replayable witness (witness.go).
package crashmc

import (
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
)

// Class says how one pending write may survive a crash.
type Class int

const (
	// ClassFree writes survive or vanish independently of every other
	// write: dirty persistent cache lines under PMEM, whose writeback
	// order is cache-replacement order — unconstrained by the program.
	ClassFree Class = iota
	// ClassEpoch writes survive only together with every same-core write
	// of an earlier epoch (BEP volatile persist buffers: drains follow
	// epoch order, but within an epoch coalescing may reorder freely).
	ClassEpoch
)

func (c Class) String() string {
	switch c {
	case ClassFree:
		return "free"
	case ClassEpoch:
		return "epoch"
	default:
		return "class?"
	}
}

// PendingWrite is one line-granular write that had reached the point of
// visibility but not the point of persistency when the machine stopped.
// Whether it survives the crash is the model's nondeterminism.
type PendingWrite struct {
	Addr memory.Addr
	Data [memory.LineSize]byte
	// Class picks the survival rule.
	Class Class
	// Core is the issuing core for ClassEpoch writes, -1 for ClassFree.
	Core int
	// Epoch is the BEP epoch tag (ClassEpoch only).
	Epoch uint64
	// Seq is the write's global capture order; overlays apply in Seq
	// order so a line buffered in two epochs resolves to the newer data.
	Seq int
}

// Record is everything the enumerator needs about one crash instant.
type Record struct {
	Scheme     persistency.Scheme
	CrashCycle engine.Cycle
	// Finished reports whether every program completed before the crash.
	Finished bool
	// Base is the machine's memory after the deterministic flush-on-fail:
	// the image every legal survival set extends. Capture's Base aliases
	// the crashed machine's memory. Snapshot's is the image it was handed
	// (System.CrashImage), valid until that image is reused. Config.Run's
	// validator writes each image into it in place, through pointers to
	// the pending lines resolved once per point (Memory.Line), and restores
	// those lines after checking the image; the writes bypass Memory's
	// Writes and wear accounting, which no one reads on a crash image. The
	// enumerator only reads it.
	Base *memory.Memory
	// Drain is the flush-on-fail report (battery accounting).
	Drain persistency.DrainReport
	// DomainLines counts lines that were pending *inside* the persistence
	// domain (WPQ entries, stalled WPQ writers, battery-backed bbPB
	// entries) at the crash: they survive every crash, so they are part
	// of Base rather than of the enumerable set.
	DomainLines int
	// Pending is the nondeterministic set, in capture order. Empty for
	// the schemes whose persistence domain covers every committed
	// persisting store (BBB, BBBProc, eADR, NVCache): their reachable
	// crash-state space is exactly {Base}.
	Pending []PendingWrite
}

// Capture stops nothing and runs nothing: sys must already be halted at
// the crash cycle (workload.BuildToCrash). It snapshots the scheme's
// pending persistence-domain writes, then crashes the machine — the
// deterministic flush-on-fail into sys.Mem, emptying the drained buffers
// with their counters and trace — and returns the record describing the
// reachable space. Snapshot records the same thing without the crash.
//
// Survival classes per scheme:
//
//   - PMEM: the WPQ (ADR) survives — it is drained into Base — while
//     every dirty persistent cache line is ClassFree: real hardware could
//     have evicted any subset of them, in any order, before the crash.
//     Fence-induced ordering needs no extra bookkeeping here because a
//     clwb+sfence-ordered line is clean (and durable) by the time the
//     fence completes: ordered-earlier writes are never in the pending
//     set alongside ordered-later ones.
//   - BEP: the volatile persist buffers are lost by the deterministic
//     drain, but real hardware may have drained further than the
//     simulated schedule; every still-buffered entry is ClassEpoch.
//     Dirty persistent cache lines are NOT enumerable under BEP: the
//     hardware orders (or drops) their writebacks through the buffers.
//   - BBB, BBBProc, eADR, NVCache: flush-on-fail drains the whole
//     persistence path, so Pending is empty and the space is {Base}.
func Capture(sys *system.System, crashCycle engine.Cycle, finished bool) *Record {
	rec := pending(sys, crashCycle, finished)
	rec.Drain = sys.Crash()
	rec.Base = sys.Mem
	return rec
}

// Snapshot is the live form of Capture: the same Record, with Base the
// image the crash would leave, written into dst (System.CrashImage; nil
// allocates one). Passing back an earlier record's Base reuses its image.
// It leaves sys untouched — memory, caches, buffers, WPQ, store buffers,
// counters and trace — so the machine can run on to the next crash point
// (workload.WalkCrashPoints) and finish exactly as if it had never been
// snapshotted.
func Snapshot(sys *system.System, crashCycle engine.Cycle, finished bool, dst *memory.Memory) *Record {
	rec := pending(sys, crashCycle, finished)
	rec.Base, rec.Drain = sys.CrashImage(dst)
	return rec
}

// pending collects the part of the record that precedes the drain: the
// domain-resident line count and the enumerable pending writes with their
// survival classes. It reads the machine without modifying it.
func pending(sys *system.System, crashCycle engine.Cycle, finished bool) *Record {
	rec := &Record{
		Scheme:     sys.Cfg.Scheme,
		CrashCycle: crashCycle,
		Finished:   finished,
	}
	rec.DomainLines = len(sys.NVMM.PendingLines()) + sys.Model.BufferedLines()

	switch sys.Cfg.Scheme {
	case persistency.PMEM:
		sys.Hier.ForEachDirtyLine(func(la memory.Addr, persistent bool, data *[memory.LineSize]byte) {
			if !persistent {
				return
			}
			rec.Pending = append(rec.Pending, PendingWrite{
				Addr: la, Data: *data, Class: ClassFree, Core: -1, Seq: len(rec.Pending),
			})
		})
	case persistency.BEP:
		for core, entries := range sys.Model.VPBSnapshot() {
			for _, e := range entries {
				rec.Pending = append(rec.Pending, PendingWrite{
					Addr: e.Addr, Data: e.Data, Class: ClassEpoch,
					Core: core, Epoch: e.Epoch, Seq: len(rec.Pending),
				})
			}
		}
	}
	return rec
}
