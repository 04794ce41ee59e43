// Package engine provides the discrete-event simulation kernel used by every
// timed component in the BBB simulator.
//
// Events are ordered by (time, sequence) across three queues: a ring for
// the current cycle, a timing wheel for the near future and an overflow
// binary heap beyond it (see Engine). Events scheduled for the same cycle
// fire in the order they were scheduled, which makes whole-system runs
// deterministic.
//
// The queues are hand-specialized over the event struct (no container/heap,
// no interface boxing), so Schedule and Step are allocation-free once they
// have grown to the run's high-water mark. For the hottest
// schedule sites, ScheduleArg carries a uint64 argument in the event itself
// so callers can reuse one long-lived callback instead of allocating a
// closure per event.
//
// An event may queue continuations with Resume; Step runs them once the
// event's callback has returned. Inside Run or RunUntil a continuation may
// dispatch the following events itself with StepInline, in the order the
// loop would have: the cores' workload programs drive the loop this way
// and switch coroutines only when a different program must run.
package engine

import (
	"fmt"
	"math/bits"

	"bbb/internal/stats"
	"bbb/internal/trace"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle = uint64

// maxCycle is the limit of an unbounded Run.
const maxCycle = ^Cycle(0)

// event is a callback scheduled to fire at a particular cycle. Exactly one
// of fn and afn is set; afn receives arg, saving a closure allocation at
// call sites that would otherwise capture a single word.
type event struct {
	when Cycle
	seq  uint64
	fn   func()
	afn  func(uint64)
	arg  uint64
}

// heapEntry is the pointer-free heap node: ordering key plus an index into
// the event slab. Keeping the heap free of pointers makes every sift swap a
// plain word copy — no GC write barriers, and nothing in the (frequently
// shuffled) heap for the garbage collector to scan.
type heapEntry struct {
	when Cycle
	seq  uint64
	idx  int32
}

// wheelSize is the span of the timing wheel in cycles. Component latencies
// are tens of cycles, so nearly every event lands in the wheel; only
// far-future schedules (deep memory-channel queueing, coarse tickers) fall
// through to the overflow heap.
const (
	wheelSize = 1024
	wheelMask = wheelSize - 1
)

// bucket is one timing-wheel slot: a FIFO of events for a single cycle.
// Because events earlier than now always drain before the window wraps, a
// bucket never mixes cycles, and the globally monotonic seq means appends
// arrive in seq order — so FIFO pop preserves (when, seq) order with no
// sifting at all.
type bucket struct {
	evs  []event
	head int
}

// Engine is the discrete-event scheduler. The zero value is not usable;
// construct one with New.
//
// Events are kept in three structures, merged on pop by (when, seq):
//
//   - ring: events for the current cycle (delay 0) — plain FIFO.
//   - wheel: events within wheelSize cycles — indexed by when&wheelMask.
//   - pq: far-future overflow — a pointer-free binary heap over an event
//     slab. Entries whose time drifts into the wheel window stay put; the
//     pop-time merge keeps ordering exact.
//
// All three are allocation-free once grown to the run's high-water mark.
type Engine struct {
	pq   []heapEntry // overflow min-heap ordered by (when, seq)
	evs  []event     // slab of pending heap events, indexed by heapEntry.idx
	free []int32     // recycled slab slots

	wheel      []bucket
	wheelCount int   // events resident in the wheel
	wheelPos   Cycle // no wheel event is earlier than this cycle
	// wheelBits is the wheel's occupancy bitmap, one bit per bucket, set on
	// enqueue and cleared when a bucket fully drains. wheelHead hops empty
	// gaps a 64-bucket word at a time instead of probing slot by slot.
	wheelBits [wheelSize / 64]uint64

	// ring holds same-cycle events (when == now at enqueue time). The ring
	// must drain before the clock can advance — no queued event can order
	// before a ring event — so ring entries always satisfy when == now.
	ring    []event
	head    int // ring read position
	now     Cycle
	seq     uint64
	stopped bool
	// resumes is the FIFO of continuations queued by Resume, read from
	// rhead. running and limit describe the enclosing Run/RunUntil call,
	// which is what lets StepInline dispatch from a continuation.
	resumes []func()
	rhead   int
	running bool
	limit   Cycle
	// Dispatched counts events executed, useful for sanity limits in tests.
	Dispatched uint64
	// Trace, when non-nil, receives microarchitectural events from every
	// component sharing this engine (components call Engine.Trace.Emit
	// with Engine.Now(); a nil recorder drops events for free).
	Trace *trace.Recorder
	// Metrics, when non-nil, receives histogram observations and gauge
	// samples from the same components (latency distributions, occupancy
	// timelines); a nil registry drops them for free, mirroring Trace.
	Metrics *stats.Metrics
}

// EmitTrace records a trace event at the current cycle; free when tracing
// is off.
func (e *Engine) EmitTrace(kind trace.Kind, core int, addr, aux uint64) {
	e.Trace.Emit(e.now, kind, core, addr, aux)
}

// New returns an empty engine at cycle 0.
func New() *Engine {
	return &Engine{wheel: make([]bucket, wheelSize)}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// less orders the heap by (when, seq).
func (e *Engine) less(i, j int) bool {
	if e.pq[i].when != e.pq[j].when {
		return e.pq[i].when < e.pq[j].when
	}
	return e.pq[i].seq < e.pq[j].seq
}

// alloc stores ev in the slab and returns its slot.
func (e *Engine) alloc(ev event) int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.evs[i] = ev
		return i
	}
	e.evs = append(e.evs, ev)
	return int32(len(e.evs) - 1)
}

// push inserts ev, sifting its heap entry up to position.
func (e *Engine) push(ev event) {
	e.pq = append(e.pq, heapEntry{when: ev.when, seq: ev.seq, idx: e.alloc(ev)})
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The vacated slab slot is
// zeroed so the callback (and anything it captures) is released to the GC.
func (e *Engine) pop() event {
	top := e.pq[0]
	n := len(e.pq) - 1
	e.pq[0] = e.pq[n]
	e.pq = e.pq[:n]
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < n && e.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && e.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		e.pq[i], e.pq[smallest] = e.pq[smallest], e.pq[i]
		i = smallest
	}
	// The vacated slab slot is left as-is (not zeroed): the callbacks it
	// references are long-lived prebuilt closures, so retaining them until
	// the slot is reused costs nothing and skips a GC write barrier here.
	e.free = append(e.free, top.idx)
	return e.evs[top.idx]
}

// enqueue routes an event to the same-cycle ring, the timing wheel, or the
// overflow heap.
func (e *Engine) enqueue(ev event) {
	d := ev.when - e.now
	if d == 0 {
		e.ring = append(e.ring, ev)
		return
	}
	if d < wheelSize {
		slot := ev.when & wheelMask
		b := &e.wheel[slot]
		b.evs = append(b.evs, ev)
		e.wheelBits[slot/64] |= 1 << (slot % 64)
		if e.wheelCount == 0 || ev.when < e.wheelPos {
			e.wheelPos = ev.when
		}
		e.wheelCount++
		return
	}
	e.push(ev)
}

// wheelHead returns the earliest pending wheel event (without removing it),
// advancing wheelPos past empty cycles via the occupancy bitmap: runs of
// empty buckets cost one word test per 64 instead of a probe per slot.
// Amortized O(1): wheelPos only moves forward between resets by nearer
// enqueues.
func (e *Engine) wheelHead() *event {
	if e.wheelCount == 0 {
		return nil
	}
	for {
		slot := e.wheelPos & wheelMask
		if w := e.wheelBits[slot/64] >> (slot % 64); w != 0 {
			e.wheelPos += Cycle(bits.TrailingZeros64(w))
			b := &e.wheel[e.wheelPos&wheelMask]
			// A bucket never mixes cycles, but the scan can reach a bucket
			// whose single resident cycle is a full lap ahead (inserted
			// after the clock advanced); match the exact cycle before
			// stopping.
			if b.head < len(b.evs) && b.evs[b.head].when == e.wheelPos {
				return &b.evs[b.head]
			}
			e.wheelPos++
			continue
		}
		// Rest of this bitmap word is empty; hop to the next word boundary.
		e.wheelPos += 64 - (e.wheelPos % 64)
	}
}

// wheelPop removes the event wheelHead returned. Drained slots are not
// zeroed — see pop.
func (e *Engine) wheelPop() event {
	slot := e.wheelPos & wheelMask
	b := &e.wheel[slot]
	ev := b.evs[b.head]
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		e.wheelBits[slot/64] &^= 1 << (slot % 64)
	}
	e.wheelCount--
	return ev
}

// Schedule queues fn to run delay cycles from now. A delay of 0 runs fn
// later in the current cycle, after already-queued same-cycle events.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	if fn == nil {
		panic("engine: Schedule called with nil fn")
	}
	e.seq++
	e.enqueue(event{when: e.now + delay, seq: e.seq, fn: fn})
}

// ScheduleArg queues fn(arg) to run delay cycles from now, with the same
// ordering rules as Schedule. It exists for hot paths: a long-lived fn plus
// a value argument schedules with zero allocations, where Schedule would
// force the caller to allocate a fresh capturing closure per event.
func (e *Engine) ScheduleArg(delay Cycle, fn func(uint64), arg uint64) {
	if fn == nil {
		panic("engine: ScheduleArg called with nil fn")
	}
	e.seq++
	e.enqueue(event{when: e.now + delay, seq: e.seq, afn: fn, arg: arg})
}

// At queues fn to run at the absolute cycle when, which must not be in the
// past.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("engine: At(%d) is in the past (now=%d)", when, e.now))
	}
	e.Schedule(when-e.now, fn)
}

// Stop makes the current Run call return after the in-flight event and the
// continuations it queued.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	return len(e.pq) + e.wheelCount + len(e.ring) - e.head
}

// next removes and returns the globally earliest event, merging the
// same-cycle ring, the timing wheel, and the overflow heap by (when, seq).
// Ring entries always have when == now, so they win unless an equal-cycle
// wheel or heap event carries a smaller seq (scheduled on an earlier cycle
// for this one). It reports false, removing nothing, when no event is
// pending or the earliest one falls after limit.
func (e *Engine) next(limit Cycle) (event, bool) {
	const (
		fromRing = iota
		fromWheel
		fromHeap
	)
	src := -1
	var when Cycle
	var seq uint64
	if e.head < len(e.ring) {
		src, when, seq = fromRing, e.ring[e.head].when, e.ring[e.head].seq
	}
	if wh := e.wheelHead(); wh != nil {
		if src < 0 || wh.when < when || (wh.when == when && wh.seq < seq) {
			src, when, seq = fromWheel, wh.when, wh.seq
		}
	}
	if len(e.pq) > 0 {
		if src < 0 || e.pq[0].when < when || (e.pq[0].when == when && e.pq[0].seq < seq) {
			src, when = fromHeap, e.pq[0].when
		}
	}
	if src < 0 || when > limit {
		return event{}, false
	}
	switch src {
	case fromRing:
		// Drained slots are not zeroed — see pop.
		ev := e.ring[e.head]
		e.head++
		if e.head == len(e.ring) {
			e.ring = e.ring[:0]
			e.head = 0
		}
		return ev, true
	case fromWheel:
		return e.wheelPop(), true
	default:
		return e.pop(), true
	}
}

// dispatch advances the clock to ev and runs its callback.
func (e *Engine) dispatch(ev event) {
	if ev.when < e.now {
		panic("engine: time went backwards")
	}
	e.now = ev.when
	e.Dispatched++
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.fn()
	}
}

// Resume queues fn, a continuation of the event being dispatched, to run
// once that event's callback has returned. Step runs queued continuations
// in FIFO order before it returns, so a continuation never nests inside
// another: the cores resume their workload programs this way. It is meant
// for work that is the tail of its event, which running after the callback
// returns leaves in the same order.
func (e *Engine) Resume(fn func()) {
	e.resumes = append(e.resumes, fn)
}

// ResumeQueued reports whether a continuation is waiting to run.
func (e *Engine) ResumeQueued() bool { return e.rhead < len(e.resumes) }

// Step executes the single earliest event, advancing the clock to its time,
// and then the continuations it queued with Resume. It reports whether an
// event was executed. Continuations run under a bare Step cannot dispatch
// further events (StepInline refuses outside Run and RunUntil).
func (e *Engine) Step() bool { return e.step(maxCycle) }

func (e *Engine) step(limit Cycle) bool {
	ev, ok := e.next(limit)
	if !ok {
		return false
	}
	e.dispatch(ev)
	// A continuation may drive the loop itself (StepInline) and so queue
	// further resumes; the queue is reset the moment it empties, before the
	// popped continuation runs, so its appends start from the front again.
	// Without that a run executed inside one top-level Step would grow the
	// queue by one slot per resume.
	for e.ResumeQueued() {
		fn := e.resumes[e.rhead]
		e.rhead++
		if e.rhead == len(e.resumes) {
			e.resumes = e.resumes[:0]
			e.rhead = 0
		}
		fn()
	}
	return true
}

// StepInline dispatches the next event from inside a continuation, as the
// loop itself would have done next, and reports whether it did. It refuses
// (false) unless the engine is inside Run or RunUntil, the run has not been
// stopped, no continuation is queued, and the next event is within the
// run's limit; the caller then returns control to the loop. Continuations
// the dispatched event queues are left for the loop to run.
func (e *Engine) StepInline() bool {
	if !e.running || e.stopped || e.ResumeQueued() {
		return false
	}
	ev, ok := e.next(e.limit)
	if !ok {
		return false
	}
	e.dispatch(ev)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.RunUntil(maxCycle) }

// RunUntil executes events until the queue is empty, Stop is called, or the
// clock would pass limit. Events at exactly limit still execute.
func (e *Engine) RunUntil(limit Cycle) {
	e.stopped = false
	e.running, e.limit = true, limit
	defer func() { e.running = false }()
	for !e.stopped && e.step(limit) {
	}
}

// Ticker invokes fn every period cycles until fn returns false.
func (e *Engine) Ticker(period Cycle, fn func() bool) {
	if period == 0 {
		panic("engine: Ticker period must be positive")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.Schedule(period, tick)
		}
	}
	e.Schedule(period, tick)
}
