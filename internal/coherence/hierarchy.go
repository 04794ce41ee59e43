package coherence

import (
	"fmt"

	"bbb/internal/cache"
	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
	"bbb/internal/stats"
)

// Config sizes the hierarchy; defaults follow Table III.
type Config struct {
	Cores  int
	L1Size int
	L1Ways int
	L1Lat  engine.Cycle
	L2Size int
	L2Ways int
	L2Lat  engine.Cycle
	// RemoteLat is the extra cost of an L1-to-L1 intervention or
	// invalidation hop through the L2 directory.
	RemoteLat engine.Cycle
}

// DefaultConfig is the paper's simulated machine: 8 cores, 128 KiB 8-way
// L1D (2 cycles), 1 MiB 8-way shared L2 (11 cycles).
func DefaultConfig() Config {
	return Config{
		Cores:     8,
		L1Size:    128 * 1024,
		L1Ways:    8,
		L1Lat:     2,
		L2Size:    1024 * 1024,
		L2Ways:    8,
		L2Lat:     11,
		RemoteLat: 13,
	}
}

// The coherence directory — which L1s share a line, and which single L1 (if
// any) may hold it E/M — lives directly in the inclusive L2's cache.Line
// (Sharers/Owner fields), as in a real inclusive-LLC design: an entry exists
// exactly while the line is resident, Fill resets it, and eviction discards
// it with the line. Directory fields are mutated only under the line's
// lineLock; quiescent walkers (snapshots, invariant checks) read them
// between engine events.

// Line locks serialize transactions per cache line. Transactions hold the
// lock from issue to completion, so state bound at the atomic mutation
// points cannot be disturbed by a racing transaction on the same line.
//
// The locks of one page's 64 lines are two bitmaps in a lockPage: held
// marks lines with a transaction in flight, waiting marks held lines with
// queued transactions behind them. The pages sit in a dense page table
// indexed by page number, so the per-access lookup is two array indexings
// and no hash; being pointer-free, the leaves are invisible to the garbage
// collector. The waiter queues themselves live in a side map touched only
// on contention.
type lockPage struct {
	held    uint64
	waiting uint64
}

// Hierarchy is the coherent two-level cache system in front of the memory
// controllers.
type Hierarchy struct {
	cfg    Config
	eng    *engine.Engine
	layout memory.Layout
	l1s    []*cache.Cache
	l2     *cache.Cache
	locks  memory.PageTable[lockPage]
	// lockWaiters holds the FIFO queue of transactions blocked behind a
	// held line lock, keyed by line address; an entry exists exactly while
	// the line's waiting bit is set.
	lockWaiters map[memory.Addr][]func()
	// Last-page memo for lockPageFor; page-table entries never move, so
	// the memo cannot dangle.
	lockLast     *lockPage
	lockLastBase memory.Addr
	dram         *memctrl.Controller
	nvmm         *memctrl.Controller
	policy       PersistPolicy

	// txnFree is the freelist of pooled access transactions (txn.go).
	txnFree *accessTxn

	// Cached handles for the per-access counters; registration still
	// happens at first increment, so counter listings are unchanged.
	nLoadHits, nLoadMisses, nStoreHits, nStoreUpgrades, nStoreMisses   stats.Lazy
	nL2Hits, nL2Misses, nPersisting                                    stats.Lazy
	nL1Evictions, nL2Evictions, nBackInvals, nInvals                   stats.Lazy
	nInterventions, nPrefetches, nAtomics, nClwbClean, nClwbWritebacks stats.Lazy
	nWritebacks, nWritebacksSkipped, nPersistRejected, nCommitWaits    stats.Lazy

	// Stats holds hierarchy counters (hits, misses, invalidations, ...).
	Stats *stats.Counters
}

// New wires a hierarchy. policy must not be nil; use NullPolicy for schemes
// without persist buffers.
//
//bbbvet:quiescent construction, before any transaction exists
func New(cfg Config, eng *engine.Engine, layout memory.Layout, dram, nvmm *memctrl.Controller, policy PersistPolicy) *Hierarchy {
	if policy == nil {
		panic("coherence: nil PersistPolicy")
	}
	h := &Hierarchy{
		cfg:         cfg,
		eng:         eng,
		layout:      layout,
		l2:          cache.New("L2", cfg.L2Size, cfg.L2Ways),
		locks:       memory.NewPageTable[lockPage](layout.NVMMBase),
		lockWaiters: make(map[memory.Addr][]func()),
		dram:        dram,
		nvmm:        nvmm,
		policy:      policy,
		Stats:       stats.NewCounters(),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1s = append(h.l1s, cache.New(fmt.Sprintf("L1D%d", i), cfg.L1Size, cfg.L1Ways))
	}
	h.nLoadHits = h.Stats.Lazy("l1.load_hits")
	h.nLoadMisses = h.Stats.Lazy("l1.load_misses")
	h.nStoreHits = h.Stats.Lazy("l1.store_hits")
	h.nStoreUpgrades = h.Stats.Lazy("l1.store_upgrades")
	h.nStoreMisses = h.Stats.Lazy("l1.store_misses")
	h.nL2Hits = h.Stats.Lazy("l2.hits")
	h.nL2Misses = h.Stats.Lazy("l2.misses")
	h.nPersisting = h.Stats.Lazy("store.persisting")
	h.nL1Evictions = h.Stats.Lazy("l1.evictions")
	h.nL2Evictions = h.Stats.Lazy("l2.evictions")
	h.nBackInvals = h.Stats.Lazy("l1.back_invalidations")
	h.nInvals = h.Stats.Lazy("l1.invalidations")
	h.nInterventions = h.Stats.Lazy("l1.interventions")
	h.nPrefetches = h.Stats.Lazy("l1.store_prefetches")
	h.nAtomics = h.Stats.Lazy("l1.atomics")
	h.nClwbClean = h.Stats.Lazy("clwb.clean")
	h.nClwbWritebacks = h.Stats.Lazy("clwb.writebacks")
	h.nWritebacks = h.Stats.Lazy("l2.writebacks")
	h.nWritebacksSkipped = h.Stats.Lazy("l2.writebacks_skipped")
	h.nPersistRejected = h.Stats.Lazy("store.persist_rejected")
	h.nCommitWaits = h.Stats.Lazy("store.persist_commit_waits")
	return h
}

// Cores returns the core count.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Layout returns the physical memory layout.
func (h *Hierarchy) Layout() memory.Layout { return h.layout }

// controllerFor returns the memory controller owning addr.
func (h *Hierarchy) controllerFor(addr memory.Addr) *memctrl.Controller {
	if h.layout.RegionOf(addr) == memory.RegionNVMM {
		return h.nvmm
	}
	return h.dram
}

// lockPageFor returns la's lock page and its line's bit position.
func (h *Hierarchy) lockPageFor(la memory.Addr) (*lockPage, uint) {
	pg := h.lockLast
	if base := la &^ (memory.PageSize - 1); pg == nil || base != h.lockLastBase {
		pg = h.locks.Slot(base)
		h.lockLast, h.lockLastBase = pg, base
	}
	return pg, lockBit(la)
}

// lockBit is la's line's bit in its lock page.
func lockBit(la memory.Addr) uint { return uint(la/memory.LineSize) % 64 }

// lockTxn runs t's locked dispatch with its line lock held, queueing it
// behind any transaction already in flight on the line; finish releases the
// lock exactly once when the transaction completes. t keeps its lock page,
// so the release looks nothing up.
func (h *Hierarchy) lockTxn(t *accessTxn) {
	pg, bit := h.lockPageFor(t.la)
	t.lockPg, t.lockBit = pg, bit
	if pg.held&(1<<bit) != 0 {
		pg.waiting |= 1 << bit
		h.lockWaiters[t.la] = append(h.lockWaiters[t.la], t.lockedFn)
		return
	}
	pg.held |= 1 << bit
	h.locked(t)
}

// unlock releases t's line lock, handing it to the next queued transaction
// if one is waiting (the held bit stays set across the handoff).
func (h *Hierarchy) unlock(t *accessTxn) {
	la, pg, bit := t.la, t.lockPg, t.lockBit
	if pg.held&(1<<bit) == 0 {
		panic("coherence: release of unheld line lock")
	}
	if pg.waiting&(1<<bit) == 0 {
		pg.held &^= 1 << bit
		return
	}
	ws := h.lockWaiters[la]
	next := ws[0]
	if len(ws) == 1 {
		delete(h.lockWaiters, la)
		pg.waiting &^= 1 << bit
	} else {
		ws[0] = nil
		h.lockWaiters[la] = ws[1:]
	}
	// Run the next transaction in a fresh event so releases never recurse.
	h.eng.Schedule(0, next)
}

// l2Line returns the L2 line holding addr, which carries the directory state
// for the line. The caller must know the line is resident (inclusion).
//
//bbbvet:locked lineLock
func (h *Hierarchy) l2Line(addr memory.Addr) *cache.Line {
	l := h.l2.Probe(addr)
	if l == nil {
		panic(fmt.Sprintf("coherence: L2 line %#x expected resident", addr))
	}
	return l
}
