// Package memctrl models the DRAM and NVMM memory controllers.
//
// The NVMM controller implements ADR (asynchronous DRAM refresh) semantics
// from the paper's baseline: a write becomes durable the moment it is
// accepted into the controller's write-pending queue (WPQ), which is inside
// the persistence domain and is drained to the NVMM medium by battery on a
// power failure. Reads snoop the WPQ. WPQ entries coalesce by line and drain
// lazily above an occupancy threshold, mirroring the DRAM-controller
// optimizations the paper cites (§III-F).
//
// Timing is a latency + per-channel occupancy model: each 64-byte transfer
// occupies one channel for a bandwidth-derived number of cycles and
// completes after the medium latency.
package memctrl

import (
	"fmt"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

// Config describes one controller.
type Config struct {
	Name     string
	Region   memory.Region
	ReadLat  engine.Cycle // medium read latency, cycles
	WriteLat engine.Cycle // medium write latency, cycles
	Channels int
	// ReadOcc/WriteOcc are per-transfer channel occupancies in cycles,
	// i.e. 64 B divided by per-channel bandwidth.
	ReadOcc  engine.Cycle
	WriteOcc engine.Cycle

	// WPQ configuration; WPQEntries == 0 disables the WPQ (DRAM).
	WPQEntries        int
	WPQDrainThreshold float64 // drain when occupancy/capacity exceeds this
	WPQAcceptLat      engine.Cycle
}

// DefaultDRAM returns the Table III DRAM controller at a 2 GHz core clock
// (1 cycle = 0.5 ns): 55 ns read/write.
func DefaultDRAM() Config {
	return Config{
		Name:     "dram",
		Region:   memory.RegionDRAM,
		ReadLat:  110,
		WriteLat: 110,
		Channels: 2,
		ReadOcc:  10,
		WriteOcc: 10,
	}
}

// DefaultNVMM returns the Table III NVMM controller: 150 ns read, 500 ns
// write, ADR WPQ. Occupancies follow the Optane measurements the paper
// cites (~2.3 GB/s write, ~6.6 GB/s read per channel).
func DefaultNVMM() Config {
	return Config{
		Name:              "nvmm",
		Region:            memory.RegionNVMM,
		ReadLat:           300,
		WriteLat:          1000,
		Channels:          2,
		ReadOcc:           20,
		WriteOcc:          56,
		WPQEntries:        32,
		WPQDrainThreshold: 0.75,
		WPQAcceptLat:      8,
	}
}

type wpqEntry struct {
	addr     memory.Addr
	enq      engine.Cycle // cycle the entry was accepted, for residency stats
	data     [memory.LineSize]byte
	draining bool
}

type pendingWrite struct {
	addr memory.Addr
	data [memory.LineSize]byte
	done func()
}

// Controller is one memory controller bound to an engine and the shared
// functional memory.
type Controller struct {
	cfg Config
	eng *engine.Engine
	mem *memory.Memory

	chanFree []engine.Cycle // absolute cycle each channel becomes free

	wpq     []wpqEntry
	waiters []pendingWrite // writes stalled on a full WPQ

	// drainDone is the preallocated medium-write completion (stat only;
	// the trace event fires earlier, when the WPQ slot frees) shared by
	// every WPQ drain; the drained address rides in the event.
	drainDone func(addr uint64)

	readFree  *readOp  // pooled medium-read completions
	drainFree *drainOp // pooled WPQ drain transfers

	// Cached handles for the per-request counters (the names concatenate
	// the controller name, so building them per call would allocate).
	nReads, nWrites, nWPQReadHits, nWPQCoalesced, nWPQFullStalls, nWPQDrains stats.Lazy
	nCrashDrained                                                            stats.Lazy
	wpqResidency                                                             stats.LazyHist
	wpqDepth                                                                 stats.LazyGauge

	// Stats collects controller counters, prefixed with the config name.
	Stats *stats.Counters
}

// New builds a controller.
func New(cfg Config, eng *engine.Engine, mem *memory.Memory) *Controller {
	if cfg.Channels <= 0 {
		panic("memctrl: Channels must be positive")
	}
	c := &Controller{
		cfg:      cfg,
		eng:      eng,
		mem:      mem,
		chanFree: make([]engine.Cycle, cfg.Channels),
		Stats:    stats.NewCounters(),
	}
	c.nReads = c.Stats.Lazy(c.counter("reads"))
	c.nWrites = c.Stats.Lazy(c.counter("writes"))
	c.nWPQReadHits = c.Stats.Lazy(c.counter("wpq_read_hits"))
	c.nWPQCoalesced = c.Stats.Lazy(c.counter("wpq_coalesced"))
	c.nWPQFullStalls = c.Stats.Lazy(c.counter("wpq_full_stalls"))
	c.nWPQDrains = c.Stats.Lazy(c.counter("wpq_drains"))
	c.nCrashDrained = c.Stats.Lazy(c.counter("crash_drained"))
	c.wpqResidency = eng.Metrics.LazyHist("wpq.residency")
	c.wpqDepth = eng.Metrics.LazyGauge("wpq.depth")
	c.drainDone = func(addr uint64) {
		c.nWPQDrains.Inc()
	}
	return c
}

// readOp is a pooled medium-read completion: it fills the caller's buffer
// inside the completion event, replacing the per-read capturing closure.
type readOp struct {
	c     *Controller
	next  *readOp
	addr  memory.Addr
	buf   *[memory.LineSize]byte
	done  func()
	runFn func()
}

func (c *Controller) getReadOp() *readOp {
	op := c.readFree
	if op == nil {
		op = &readOp{c: c}
		op.runFn = func() {
			op.c.mem.ReadLine(op.addr, op.buf)
			done := op.done
			op.buf, op.done = nil, nil
			op.next = op.c.readFree
			op.c.readFree = op
			done()
		}
		return op
	}
	c.readFree = op.next
	op.next = nil
	return op
}

// drainOp is a pooled WPQ drain transfer, replacing the per-drain closure.
type drainOp struct {
	c     *Controller
	next  *drainOp
	addr  memory.Addr
	enq   engine.Cycle
	data  [memory.LineSize]byte
	runFn func()
}

func (c *Controller) getDrainOp() *drainOp {
	op := c.drainFree
	if op == nil {
		op = &drainOp{c: c}
		op.runFn = func() {
			ctl := op.c
			addr, enq := op.addr, op.enq
			ctl.mem.WriteLine(addr, &op.data)
			op.next = ctl.drainFree
			ctl.drainFree = op
			ctl.wpqRemove(addr)
			ctl.eng.EmitTrace(trace.KindWPQDrain, -1, addr, uint64(len(ctl.wpq)))
			ctl.wpqResidency.Observe(uint64(ctl.eng.Now() - enq))
			ctl.wpqDepth.Sample(uint64(ctl.eng.Now()), -1, uint64(len(ctl.wpq)))
			ctl.admitWaiters()
			ctl.maybeDrain()
		}
		return op
	}
	c.drainFree = op.next
	op.next = nil
	return op
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

func (c *Controller) counter(suffix string) string { return c.cfg.Name + "." + suffix }

// claimChannel reserves the earliest-free channel for occ cycles and returns
// the cycle at which the transfer starts.
func (c *Controller) claimChannel(occ engine.Cycle) engine.Cycle {
	best := 0
	for i, f := range c.chanFree {
		if f < c.chanFree[best] {
			best = i
		}
	}
	start := c.eng.Now()
	if c.chanFree[best] > start {
		start = c.chanFree[best]
	}
	c.chanFree[best] = start + occ
	return start
}

// Read fetches the line at addr, invoking done with its data when the read
// completes. The WPQ (if any) and writes still stalled behind a full WPQ
// are snooped first: a hit returns the queued data at the accept latency
// without touching the medium.
func (c *Controller) Read(addr memory.Addr, done func(data [memory.LineSize]byte)) {
	c.nReads.Inc()
	if data, ok := c.snoop(addr); ok {
		c.nWPQReadHits.Inc()
		c.eng.Schedule(c.cfg.WPQAcceptLat, func() { done(data) })
		return
	}
	start := c.claimChannel(c.cfg.ReadOcc)
	finish := start + c.cfg.ReadLat
	c.eng.At(finish, func() {
		var data [memory.LineSize]byte
		c.mem.ReadLine(addr, &data)
		done(data)
	})
}

// ReadInto fetches the line at addr into *buf, invoking done when the read
// completes. It is the allocation-free counterpart of Read for pooled
// callers: a WPQ snoop hit copies synchronously and schedules done as-is; a
// medium read fills buf inside a pooled completion event. Timing and stats
// match Read exactly.
func (c *Controller) ReadInto(addr memory.Addr, buf *[memory.LineSize]byte, done func()) {
	c.nReads.Inc()
	if data, ok := c.snoop(addr); ok {
		c.nWPQReadHits.Inc()
		*buf = data
		c.eng.Schedule(c.cfg.WPQAcceptLat, done)
		return
	}
	start := c.claimChannel(c.cfg.ReadOcc)
	op := c.getReadOp()
	op.addr, op.buf, op.done = addr, buf, done
	c.eng.At(start+c.cfg.ReadLat, op.runFn)
}

// Write makes the line at addr durable (NVMM) or written (DRAM), invoking
// done at the controller's persist point: WPQ acceptance for a controller
// with a WPQ, medium completion otherwise.
//
// The write is functionally visible to snooping reads from the moment Write
// is called — only the done callback carries timing — so an eviction
// followed immediately by a refetch can never observe stale data.
func (c *Controller) Write(addr memory.Addr, data [memory.LineSize]byte, done func()) {
	c.nWrites.Inc()
	if c.cfg.WPQEntries == 0 {
		c.mem.WriteLine(addr, &data)
		start := c.claimChannel(c.cfg.WriteOcc)
		finish := start + c.cfg.WriteLat
		if done != nil {
			c.eng.At(finish, done)
		}
		return
	}
	c.wpqWrite(pendingWrite{addr: addr, data: data, done: done})
}

// snoop returns the newest queued data for addr, searching stalled writers
// (newest) before the WPQ.
func (c *Controller) snoop(addr memory.Addr) ([memory.LineSize]byte, bool) {
	for i := len(c.waiters) - 1; i >= 0; i-- {
		if c.waiters[i].addr == addr {
			return c.waiters[i].data, true
		}
	}
	if i := c.wpqFind(addr); i >= 0 {
		return c.wpq[i].data, true
	}
	return [memory.LineSize]byte{}, false
}

func (c *Controller) wpqWrite(w pendingWrite) {
	// Coalesce onto an existing entry for the same line, even one already
	// draining (the drain snapshot was taken; a fresh entry is made then).
	if i := c.wpqFind(w.addr); i >= 0 && !c.wpq[i].draining {
		c.wpq[i].data = w.data
		c.nWPQCoalesced.Inc()
		c.ack(w.done)
		return
	}
	if len(c.wpq) >= c.cfg.WPQEntries {
		c.nWPQFullStalls.Inc()
		c.waiters = append(c.waiters, w)
		return
	}
	c.wpq = append(c.wpq, wpqEntry{addr: w.addr, enq: c.eng.Now(), data: w.data})
	c.eng.EmitTrace(trace.KindWPQInsert, -1, w.addr, uint64(len(c.wpq)))
	c.wpqDepth.Sample(uint64(c.eng.Now()), -1, uint64(len(c.wpq)))
	c.ack(w.done)
	c.maybeDrain()
}

func (c *Controller) ack(done func()) {
	if done == nil {
		return
	}
	c.eng.Schedule(c.cfg.WPQAcceptLat, done)
}

// wpqFind returns the index of the newest entry for addr (a draining entry
// may coexist with a fresher one written after its drain snapshot), or -1.
func (c *Controller) wpqFind(addr memory.Addr) int {
	for i := len(c.wpq) - 1; i >= 0; i-- {
		if c.wpq[i].addr == addr {
			return i
		}
	}
	return -1
}

// maybeDrain starts medium writes while the occupancy projected after all
// in-flight drains complete still exceeds the threshold.
func (c *Controller) maybeDrain() {
	limit := int(float64(c.cfg.WPQEntries) * c.cfg.WPQDrainThreshold)
	for len(c.wpq)-c.numDraining() > limit {
		i := c.oldestNotDraining()
		if i < 0 {
			return
		}
		c.drainEntry(i)
	}
}

func (c *Controller) numDraining() int {
	n := 0
	for i := range c.wpq {
		if c.wpq[i].draining {
			n++
		}
	}
	return n
}

// oldestNotDraining returns the index of the FCFS drain candidate.
func (c *Controller) oldestNotDraining() int {
	for i := range c.wpq {
		if !c.wpq[i].draining {
			return i
		}
	}
	return -1
}

// drainEntry hands entry i to the medium write pipeline. The WPQ slot frees
// when the transfer starts on its channel (so sustained drain throughput is
// bounded by channel bandwidth, not by the per-write medium latency), and
// the data becomes functionally visible in the image at that same point —
// any later read either snoops a fresher WPQ entry or sees the image.
func (c *Controller) drainEntry(i int) {
	c.wpq[i].draining = true
	op := c.getDrainOp()
	op.addr, op.data, op.enq = c.wpq[i].addr, c.wpq[i].data, c.wpq[i].enq
	start := c.claimChannel(c.cfg.WriteOcc)
	c.eng.At(start, op.runFn)
	c.eng.ScheduleArg(start+c.cfg.WriteLat-c.eng.Now(), c.drainDone, op.addr)
}

func (c *Controller) wpqRemove(addr memory.Addr) {
	for i := range c.wpq {
		if c.wpq[i].addr == addr && c.wpq[i].draining {
			c.wpq = append(c.wpq[:i], c.wpq[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("memctrl %s: draining entry %#x vanished", c.cfg.Name, addr))
}

func (c *Controller) admitWaiters() {
	for len(c.waiters) > 0 && len(c.wpq) < c.cfg.WPQEntries {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		c.wpqWrite(w)
	}
}

// WPQOccupancy reports the current number of WPQ entries.
func (c *Controller) WPQOccupancy() int { return len(c.wpq) }

// PendingLines returns the addresses of every line currently queued in the
// WPQ plus writes stalled behind a full WPQ, in queue order (oldest first,
// stalled writers last). These lines are inside the ADR persistence domain:
// every one of them survives every crash. The crash-image model checker's
// recorder uses this to report the domain-resident pending set.
func (c *Controller) PendingLines() []memory.Addr {
	out := make([]memory.Addr, 0, len(c.wpq)+len(c.waiters))
	for i := range c.wpq {
		out = append(out, c.wpq[i].addr)
	}
	for i := range c.waiters {
		out = append(out, c.waiters[i].addr)
	}
	return out
}

// FlushPending writes every line queued in the WPQ, then every write
// stalled behind a full WPQ, into write (oldest first) and returns how many
// it wrote. It leaves the controller untouched — queue, counters, trace —
// so a live crash snapshot can compute the drained image into a copy.
func (c *Controller) FlushPending(write func(memory.Addr, *[memory.LineSize]byte)) int {
	for i := range c.wpq {
		write(c.wpq[i].addr, &c.wpq[i].data)
	}
	for i := range c.waiters {
		write(c.waiters[i].addr, &c.waiters[i].data)
	}
	return len(c.wpq) + len(c.waiters)
}

// CrashDrain flushes every WPQ entry (and any stalled writers) straight to
// the memory image, as the ADR battery would on power failure, and empties
// the queue. It returns the number of lines drained. Timing-free: used only
// at crash points and at end-of-run finalization.
func (c *Controller) CrashDrain() int {
	n := c.FlushPending(func(a memory.Addr, data *[memory.LineSize]byte) {
		c.mem.WriteLine(a, data)
		c.eng.EmitTrace(trace.KindCrashDrain, -1, a, 0)
	})
	c.wpq = c.wpq[:0]
	c.waiters = nil
	c.nCrashDrained.Add(uint64(n))
	return n
}

// MediumWrites reports how many line writes reached the medium, the
// endurance-relevant count used by Fig. 7b.
func (c *Controller) MediumWrites() uint64 {
	return c.mem.Writes[c.cfg.Region]
}
