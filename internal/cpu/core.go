// Package cpu models the cores driving the memory hierarchy: a 2 GHz core
// with a FIFO store buffer in front of the L1D, and the program interface
// that runs a workload body as a coroutine of the discrete-event
// simulation.
//
// The store buffer drains to the L1D strictly in order, one store at a
// time. That is what gives BBB program-order entry into the persistence
// domain (§III-D invariant 1): each persisting store allocates its bbPB
// entry, via the coherence layer, at the moment its L1D write commits, and
// those commits happen in program order. Under the paper's relaxed-
// consistency extension (§III-C) the store buffer itself is battery backed,
// which CrashDrain models.
package cpu

import (
	"fmt"
	"iter"

	"bbb/internal/coherence"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

// Config sizes one core.
type Config struct {
	// SBEntries is the store-buffer capacity (Table III: LSQ 32).
	SBEntries int
	// ExplicitPersist selects the PMEM programming model: Env.PersistBarrier
	// issues clwb+fence. When false (BBB, eADR) PersistBarrier is free.
	ExplicitPersist bool
	// EpochMode selects buffered epoch persistency: Env.PersistBarrier
	// marks an epoch boundary (one cheap instruction, no synchronous wait).
	EpochMode bool
	// BatteryBackedSB marks the store buffer as part of the persistence
	// domain (both BBB and eADR battery-back it; the PMEM baseline does not).
	BatteryBackedSB bool
	// StorePrefetch issues a request-for-ownership for a store's line the
	// moment the store enters the buffer, overlapping write-allocate
	// misses with earlier drains — a dash of the memory-level parallelism
	// an out-of-order core would extract. Off by default.
	StorePrefetch bool
	// RelaxedSBDrain models the §III-C relaxed consistency case: buffered
	// stores may write the L1D out of program order (same-line order is
	// always kept — single-address ordering is never relaxed). Program-
	// order *persistency* then rests entirely on the battery-backed store
	// buffer: stores enter the persistence domain at SB insertion, and the
	// crash drain replays the SB in program order. With a volatile SB
	// (PMEM) this mode widens the reordering the paper warns about.
	RelaxedSBDrain bool
}

// DefaultConfig returns the Table III core front-end.
func DefaultConfig() Config {
	return Config{SBEntries: 32}
}

type reqKind int

const (
	reqLoad reqKind = iota
	reqStore
	reqPersist // clwb
	reqFence   // sfence: wait for outstanding clwbs
	reqEpoch   // epoch barrier (buffered epoch persistency)
	reqCAS     // atomic compare-and-swap
	reqCompute
)

type request struct {
	kind   reqKind
	addr   memory.Addr
	size   int
	val    uint64
	old    uint64 // CAS expected value
	cycles engine.Cycle
}

type sbEntry struct {
	addr memory.Addr
	size int
	val  uint64
	enq  engine.Cycle // cycle the store entered the SB, for residency stats
}

// Core is one simulated core.
type Core struct {
	id  int
	cfg Config
	eng *engine.Engine
	h   *coherence.Hierarchy

	// next and stop drive the program coroutine (Start); val is the value
	// the program's pending load or CAS resumes with. driving is set while
	// the program is dispatching events itself (env.do), and woken once
	// its reply has arrived there. switches counts coroutine switches, two
	// per resume, for the handoff benchmark.
	next     func() (struct{}, bool)
	stop     func()
	val      uint64
	driving  bool
	woken    bool
	switches uint64

	sb          storeBuffer
	sbDraining  bool
	sbInFlight  int        // index of the entry being drained, valid while sbDraining
	sbDrainDone func()     // preallocated completion for the in-flight drain
	sbWaiters   []sbWaiter // program stalled on an SB occupancy condition
	sbSpare     []sbWaiter // retained backing array swapped in on wake

	outstandingClwb int
	fenceWaiter     func()

	// Preallocated callbacks for the per-instruction schedule sites, so the
	// hot path (stores, loads, fences) schedules without allocating a fresh
	// closure per event: replyVal resumes the program with the event's
	// argument, reply0 with zero, fetchFn is the resume the engine runs
	// after an event that replied, and fenceReply is the one-cycle fence
	// resume.
	replyVal   func(uint64)
	reply0     func()
	fetchFn    func()
	fenceReply func()

	// The program is synchronous, so at most one of each request kind can
	// be stalled/in flight at a time; these preallocated retry closures and
	// their pending-request slots replace the per-call closures the stall
	// and completion paths used to allocate.
	pendingStore      request
	pendingStoreStart engine.Cycle
	retryStoreFn      func()
	pendingLoad       request
	retryLoadFn       func()
	pendingPersist    request
	retryPersistFn    func()
	pendingCAS        request
	casFn             func()
	epochFn           func()
	clwbDone          func()

	done     bool
	finished engine.Cycle

	// Stats carries per-core counters.
	Stats *stats.Counters
	// Cached handles for the per-instruction counters; registration still
	// happens at first increment, so counter listings are unchanged.
	nComputeCycles, nLoads, nStores, nClwbs, nFences, nAtomics, nEpochBarriers stats.Lazy
	nSBFullStalls, nSBReorderedDrains, nSBForwards, nSBOverlapStalls           stats.Lazy
	// StallCycles accumulates cycles the program spent blocked on a full
	// store buffer.
	StallCycles engine.Cycle
}

// New builds a core. Call Start with the workload before running the engine.
func New(id int, cfg Config, eng *engine.Engine, h *coherence.Hierarchy) *Core {
	if cfg.SBEntries <= 0 {
		panic("cpu: SBEntries must be positive")
	}
	c := &Core{
		id:    id,
		cfg:   cfg,
		eng:   eng,
		h:     h,
		sb:    newStoreBuffer(cfg.SBEntries),
		Stats: stats.NewCounters(),
	}
	c.nComputeCycles = c.Stats.Lazy("core.compute_cycles")
	c.nLoads = c.Stats.Lazy("core.loads")
	c.nStores = c.Stats.Lazy("core.stores")
	c.nClwbs = c.Stats.Lazy("core.clwbs")
	c.nFences = c.Stats.Lazy("core.fences")
	c.nAtomics = c.Stats.Lazy("core.atomics")
	c.nEpochBarriers = c.Stats.Lazy("core.epoch_barriers")
	c.nSBFullStalls = c.Stats.Lazy("core.sb_full_stalls")
	c.nSBReorderedDrains = c.Stats.Lazy("core.sb_reordered_drains")
	c.nSBForwards = c.Stats.Lazy("core.sb_forwards")
	c.nSBOverlapStalls = c.Stats.Lazy("core.sb_overlap_stalls")
	c.replyVal = c.reply
	c.reply0 = func() { c.reply(0) }
	c.fetchFn = c.fetch
	c.fenceReply = func() { c.eng.Schedule(1, c.reply0) }
	c.retryStoreFn = func() { c.acceptStore(c.pendingStore, c.pendingStoreStart) }
	c.retryLoadFn = func() { c.issueLoad(c.pendingLoad) }
	c.retryPersistFn = func() { c.issuePersist(c.pendingPersist) }
	c.casFn = func() {
		c.h.AtomicCAS(c.id, c.pendingCAS.addr, c.pendingCAS.size, c.pendingCAS.old, c.pendingCAS.val, c.replyVal)
	}
	c.epochFn = func() {
		c.eng.EmitTrace(trace.KindEpochMark, c.id, 0, 0)
		c.h.EpochBarrier(c.id)
		c.reply(0)
	}
	c.clwbDone = func() {
		c.outstandingClwb--
		if c.outstandingClwb == 0 && c.fenceWaiter != nil {
			fn := c.fenceWaiter
			c.fenceWaiter = nil
			fn()
		}
	}
	// At most one SB drain is in flight (sbDraining), so a single
	// preallocated completion closure serves every drain. Stores only
	// join at the tail while it is in flight, so its index still holds.
	c.sbDrainDone = func() {
		e := c.sb.remove(c.sbInFlight)
		c.eng.Metrics.Observe("cpu.sb_residency", uint64(c.eng.Now()-e.enq))
		c.sbDraining = false
		c.wakeSBWaiters()
		c.pumpSB()
	}
	return c
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Done reports whether the program has finished.
func (c *Core) Done() bool { return c.done }

// FinishedAt returns the cycle the program finished (valid once Done).
func (c *Core) FinishedAt() engine.Cycle { return c.finished }

// Start wraps the workload in a coroutine and schedules its start at cycle
// 0, as a reply with nothing to deliver. run executes against the core's
// Env and must use only that Env to touch simulated memory.
//
// The program runs only inside fetch: each next() resumes it until it
// yields, and while resumed it drives the event loop itself (env.do), so
// it never runs concurrently with the loop, and nothing of it runs before
// the cycle-0 start. A panic in run or in an event it dispatches (other
// than the teardown signal) propagates out of next() and so out of
// System.Run on the simulating goroutine.
func (c *Core) Start(run func(Env)) {
	e := &env{core: c}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAbandoned {
				panic(r)
			}
		}()
		e.yield = yield
		run(e)
	})
	c.eng.Schedule(0, c.reply0)
}

// Stop abandons the workload program; used at crash points and teardown.
// The program's pending Env call unwinds before Stop returns, so no
// goroutine outlives the machine. Safe to call more than once, and on a
// core that was never started.
func (c *Core) Stop() {
	if c.stop != nil {
		c.stop()
	}
}

// fetch resumes the program with its reply. The program handles its next
// requests and dispatches events itself until it has to wait for another
// program or the loop; fetch returns when it yields or has returned.
func (c *Core) fetch() {
	c.switches += 2
	if _, ok := c.next(); !ok {
		c.done = true
		c.finished = c.eng.Now()
	}
}

// handle starts executing req; its completion calls reply. It runs on the
// program's coroutine, from env.do.
func (c *Core) handle(req request) {
	switch req.kind {
	case reqCompute:
		c.nComputeCycles.Add(uint64(req.cycles))
		c.eng.Schedule(req.cycles, c.reply0)

	case reqLoad:
		c.nLoads.Inc()
		c.issueLoad(req)

	case reqStore:
		c.nStores.Inc()
		c.acceptStore(req, c.eng.Now())

	case reqPersist:
		c.nClwbs.Inc()
		c.eng.EmitTrace(trace.KindClwb, c.id, uint64(memory.LineAddr(req.addr)), 0)
		c.issuePersist(req)

	case reqFence:
		c.nFences.Inc()
		c.eng.EmitTrace(trace.KindFence, c.id, 0, 0)
		c.issueFence()

	case reqCAS:
		c.nAtomics.Inc()
		// Atomics act as a local fence: the store buffer drains first so
		// the RMW observes and extends program order.
		c.pendingCAS = req
		c.waitSBBelow(0, c.casFn)

	case reqEpoch:
		c.nEpochBarriers.Inc()
		// The boundary must order stores still in the SB into the earlier
		// epoch, so it takes effect once the SB has drained past them.
		c.waitSBBelow(0, c.epochFn)

	default:
		panic(fmt.Sprintf("cpu: unknown request kind %d", req.kind))
	}
}

// reply delivers val to the program. Every reply is the tail of its event.
// When the program is itself dispatching that event (env.do) and no other
// program's resume is queued ahead of it, reply only marks it woken and the
// program carries on without a coroutine switch; otherwise the program's
// resume is queued to run once the event returns.
func (c *Core) reply(val uint64) {
	c.val = val
	if c.driving && !c.eng.ResumeQueued() {
		c.woken = true
		return
	}
	c.eng.Resume(c.fetchFn)
}

// --- store buffer ---

// acceptStore places the store into the SB, stalling the program while the
// SB is full. start is when the program first attempted the store, for
// stall accounting.
func (c *Core) acceptStore(req request, start engine.Cycle) {
	if c.sb.full() {
		c.nSBFullStalls.Inc()
		c.pendingStore, c.pendingStoreStart = req, start
		c.sbWaiters = append(c.sbWaiters, sbWaiter{n: -1, fn: c.retryStoreFn})
		return
	}
	c.StallCycles += c.eng.Now() - start
	c.sb.push(sbEntry{addr: req.addr, size: req.size, val: req.val, enq: c.eng.Now()})
	// With drains queued ahead of this store, warming its line overlaps
	// the write-allocate miss with the queue.
	if c.cfg.StorePrefetch && c.sb.len() > 1 {
		c.h.PrefetchExclusive(c.id, req.addr, nil)
	}
	c.pumpSB()
	// A store retires into the SB immediately; charge one issue cycle.
	c.eng.Schedule(1, c.reply0)
}

// pumpSB drains one buffered store to the L1D at a time: the head in
// program order (TSO-style), or — under RelaxedSBDrain — the oldest entry
// whose line is already writable in the L1, provided no older entry
// targets the same line (single-address order is never relaxed).
func (c *Core) pumpSB() {
	if c.sbDraining || c.sb.len() == 0 {
		return
	}
	idx := 0
	if c.cfg.RelaxedSBDrain {
		idx = c.pickRelaxedDrain()
	}
	c.sbDraining = true
	e := c.sb.at(idx)
	if idx != 0 {
		c.nSBReorderedDrains.Inc()
	}
	c.sbInFlight = idx
	c.h.Store(c.id, e.addr, e.size, e.val, c.sbDrainDone)
}

// pickRelaxedDrain returns the index of the first entry with a locally
// writable line and no older same-line entry, or 0 (the head).
func (c *Core) pickRelaxedDrain() int {
	for i := 0; i < c.sb.len(); i++ {
		la := memory.LineAddr(c.sb.at(i).addr)
		older := false
		for j := 0; j < i; j++ {
			if memory.LineAddr(c.sb.at(j).addr) == la {
				older = true
				break
			}
		}
		if older {
			continue
		}
		if c.h.LineWritable(c.id, la) {
			return i
		}
	}
	return 0
}

// sbWaiter is one parked continuation: fn runs once the SB has at most n
// entries, or immediately on wake when n < 0 (the full-SB store retry,
// which re-checks fullness itself). Storing (n, fn) instead of a wrapper
// closure keeps the park/re-park cycle allocation-free — the fns are the
// core's preallocated retry closures.
type sbWaiter struct {
	n  int
	fn func()
}

func (c *Core) wakeSBWaiters() {
	// Snapshot: a still-blocked waiter re-appends itself, so iterating the
	// live slice would spin. The two backing arrays swap roles, so parking
	// after a wake reuses retained capacity instead of reallocating.
	waiters := c.sbWaiters
	c.sbWaiters, c.sbSpare = c.sbSpare[:0], nil
	for _, w := range waiters {
		if w.n < 0 {
			w.fn()
			continue
		}
		c.waitSBBelow(w.n, w.fn)
	}
	c.sbSpare = waiters[:0]
}

// --- loads ---

// issueLoad forwards from the SB when possible; an exact-match entry
// supplies the value directly, a partial overlap waits for the SB to drain
// past it (conservative but correct).
func (c *Core) issueLoad(req request) {
	for i := c.sb.len() - 1; i >= 0; i-- {
		e := c.sb.at(i)
		if e.addr == req.addr && e.size == req.size {
			c.nSBForwards.Inc()
			c.eng.ScheduleArg(1, c.replyVal, e.val)
			return
		}
		if overlaps(e, req) {
			c.nSBOverlapStalls.Inc()
			c.pendingLoad = req
			c.waitSBBelow(i, c.retryLoadFn)
			return
		}
	}
	c.h.Load(c.id, req.addr, req.size, c.replyVal)
}

// waitSBBelow runs fn once the SB has drained to at most n entries.
func (c *Core) waitSBBelow(n int, fn func()) {
	if c.sb.len() <= n {
		c.eng.Schedule(0, fn)
		return
	}
	c.sbWaiters = append(c.sbWaiters, sbWaiter{n: n, fn: fn})
}

func overlaps(e *sbEntry, req request) bool {
	aLo, aHi := e.addr, e.addr+memory.Addr(e.size)
	bLo, bHi := req.addr, req.addr+memory.Addr(req.size)
	return aLo < bHi && bLo < aHi
}

// --- persistence instructions (PMEM baseline) ---

// issuePersist waits for SB entries to the target line to drain, then
// issues a clwb; the program resumes immediately (clwb is asynchronous,
// sfence provides the wait).
func (c *Core) issuePersist(req request) {
	la := memory.LineAddr(req.addr)
	for i := c.sb.len() - 1; i >= 0; i-- {
		if memory.LineAddr(c.sb.at(i).addr) == la {
			c.pendingPersist = req
			c.waitSBBelow(i, c.retryPersistFn)
			return
		}
	}
	c.outstandingClwb++
	c.h.Clwb(c.id, la, c.clwbDone)
	c.eng.Schedule(1, c.reply0)
}

// issueFence blocks the program until every outstanding clwb has reached
// the persistence domain.
func (c *Core) issueFence() {
	if c.outstandingClwb == 0 {
		c.eng.Schedule(1, c.reply0)
		return
	}
	if c.fenceWaiter != nil {
		panic("cpu: concurrent fences on one core")
	}
	c.fenceWaiter = c.fenceReply
}

// --- crash support ---

// SBOccupancy reports the number of buffered stores.
func (c *Core) SBOccupancy() int { return c.sb.len() }

// BatteryBackedSB reports whether this core's store buffer is inside the
// persistence domain (§III-C).
func (c *Core) BatteryBackedSB() bool { return c.cfg.BatteryBackedSB }

// CrashDrainSB flushes buffered stores for persistent addresses straight to
// the durable image via write (a read-modify-write at line granularity),
// preserving program order, and empties the store buffer. Only meaningful
// when the store buffer is battery backed (§III-C); callers decide based on
// the scheme.
func (c *Core) CrashDrainSB(read func(memory.Addr, *[memory.LineSize]byte), write func(memory.Addr, *[memory.LineSize]byte), persistent func(memory.Addr) bool) int {
	n := c.FlushSB(read, func(la memory.Addr, data *[memory.LineSize]byte) {
		write(la, data)
		c.eng.EmitTrace(trace.KindCrashDrain, c.id, uint64(la), 0)
	}, persistent)
	c.sb.reset()
	return n
}

// FlushSB is CrashDrainSB without its effects on the core: the store
// buffer keeps its entries and no trace event is emitted, so a live crash
// snapshot can compute the drain into a copy of the image.
func (c *Core) FlushSB(read func(memory.Addr, *[memory.LineSize]byte), write func(memory.Addr, *[memory.LineSize]byte), persistent func(memory.Addr) bool) int {
	n := 0
	for i := 0; i < c.sb.len(); i++ {
		e := c.sb.at(i)
		if !persistent(e.addr) {
			continue
		}
		la := memory.LineAddr(e.addr)
		var line [memory.LineSize]byte
		read(la, &line)
		writeValueAt(&line, memory.LineOffset(e.addr), e.size, e.val)
		write(la, &line)
		n++
	}
	return n
}

func writeValueAt(data *[memory.LineSize]byte, off, size int, val uint64) {
	for i := 0; i < size; i++ {
		data[off+i] = byte(val >> (8 * uint(i)))
	}
}
