package coherence

import (
	"encoding/binary"
	"fmt"

	"bbb/internal/cache"
	"bbb/internal/memory"
	"bbb/internal/trace"
)

// Load reads size bytes (1, 2, 4 or 8; not crossing a line) at addr on
// behalf of core, invoking done with the little-endian value when the load
// completes.
func (h *Hierarchy) Load(core int, addr memory.Addr, size int, done func(val uint64)) {
	checkAccess(addr, size)
	t := h.getTxn()
	t.kind, t.core, t.addr, t.la, t.size = txnLoad, core, addr, memory.LineAddr(addr), size
	t.doneVal = done
	h.lockTxn(t)
}

// Store writes size bytes of val at addr on behalf of core, invoking done
// when the store has committed to the L1D (and, for persisting stores, to
// the persist policy — the two happen together, which is the point of BBB).
func (h *Hierarchy) Store(core int, addr memory.Addr, size int, val uint64, done func()) {
	checkAccess(addr, size)
	t := h.getTxn()
	t.kind, t.core, t.addr, t.la, t.size, t.val = txnStore, core, addr, memory.LineAddr(addr), size, val
	t.done = done
	t.persistent = h.layout.Persistent(t.la)
	h.admitStore(t)
}

// AtomicCAS performs a compare-and-swap of size bytes at addr on behalf of
// core: the line is obtained in M state, the current value is compared with
// old, and new is written only on a match. done receives the previous
// value. The per-line lock makes the read-modify-write atomic with respect
// to every other access; a successful swap on a persistent line enters the
// persistence domain exactly like a store (so persistent lock-free
// structures work under BBB with no barriers, cf. §VI's lock-free
// discussion).
func (h *Hierarchy) AtomicCAS(core int, addr memory.Addr, size int, old, new uint64, done func(prev uint64)) {
	checkAccess(addr, size)
	t := h.getTxn()
	t.kind, t.core, t.addr, t.la, t.size = txnCAS, core, addr, memory.LineAddr(addr), size
	t.old, t.val = old, new
	t.doneVal = done
	t.persistent = h.layout.Persistent(t.la)
	h.admitStore(t)
}

// LineWritable reports whether core already holds addr's line in a state
// that lets a store commit locally (M or E, and no transaction in flight
// on the line). A cheap peek used by relaxed store-buffer scheduling.
func (h *Hierarchy) LineWritable(core int, addr memory.Addr) bool {
	la := memory.LineAddr(addr)
	if pg := h.locks.Lookup(la); pg != nil && pg.held&(1<<lockBit(la)) != 0 {
		return false
	}
	l := h.l1s[core].Probe(la)
	return l != nil && (l.State == cache.Modified || l.State == cache.Exclusive)
}

// PrefetchExclusive warms addr's line into core's L1 with store intent (a
// request-for-ownership), so a later committed store hits locally. It never
// writes data and never touches the persist policy — visibility and
// persistency are unaffected; only the miss latency moves off the commit
// path. done is optional.
func (h *Hierarchy) PrefetchExclusive(core int, addr memory.Addr, done func()) {
	t := h.getTxn()
	t.kind, t.core, t.addr, t.la = txnPrefetch, core, addr, memory.LineAddr(addr)
	t.done = done
	h.lockTxn(t)
}

// invalidateOthers removes every L1 copy of la except core's, merging dirty
// data into the L2 and firing the persistency migration hook. It returns
// the number of copies invalidated.
//
//bbbvet:locked lineLock
func (h *Hierarchy) invalidateOthers(core int, la memory.Addr, l2line *cache.Line) int {
	n := 0
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core || !l2line.IsSharer(c) {
			continue
		}
		old, ok := h.l1s[c].Invalidate(la)
		if !ok {
			panic(fmt.Sprintf("coherence: directory sharer %d lacks line %#x", c, la))
		}
		if old.State == cache.Modified {
			l2line.Data = old.Data
			l2line.Dirty = true
			l2line.Persistent = l2line.Persistent || old.Persistent
		}
		h.policy.OnRemoteInvalidate(c, la)
		h.nInvals.Inc()
		h.eng.EmitTrace(trace.KindInvalidate, c, la, uint64(core))
		l2line.DropSharer(c)
		n++
	}
	if l2line.Owner >= 0 && l2line.Owner != core {
		l2line.Owner = -1
	}
	return n
}

// l1Install places la into core's L1, evicting a victim if needed (dirty L1
// victims write back into the inclusive L2).
func (h *Hierarchy) l1Install(core int, la memory.Addr, st cache.State, data *[memory.LineSize]byte) *cache.Line {
	l1 := h.l1s[core]
	victim := l1.Victim(la)
	if victim.State != cache.Invalid {
		h.evictL1Line(core, victim)
	}
	l1.Fill(victim, la, st, data)
	victim.Persistent = h.layout.Persistent(la)
	return victim
}

// evictL1Line removes a (valid) L1 line, merging dirty data into the L2 and
// maintaining the directory. bbPB entries are untouched: inclusion is with
// the LLC, not the L1 (§III-B).
//
//bbbvet:locked lineLock
func (h *Hierarchy) evictL1Line(core int, victim *cache.Line) {
	la := victim.Addr
	h.nL1Evictions.Inc()
	l2line := h.l2.Probe(la)
	if l2line == nil {
		panic(fmt.Sprintf("coherence: L1 line %#x missing from inclusive L2", la))
	}
	if victim.Dirty {
		l2line.Data = victim.Data
		l2line.Dirty = true
		l2line.Persistent = l2line.Persistent || victim.Persistent
	}
	l2line.DropSharer(core)
	if l2line.Owner == core {
		l2line.Owner = -1
	}
	victim.State = cache.Invalid
}

func checkAccess(addr memory.Addr, size int) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("coherence: unsupported access size %d", size))
	}
	if memory.LineOffset(addr)+size > memory.LineSize {
		panic(fmt.Sprintf("coherence: access at %#x size %d crosses a line", addr, size))
	}
}

func readValue(data *[memory.LineSize]byte, off, size int) uint64 {
	switch size {
	case 1:
		return uint64(data[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(data[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(data[off:]))
	default:
		return binary.LittleEndian.Uint64(data[off:])
	}
}

func writeValue(data *[memory.LineSize]byte, off, size int, val uint64) {
	switch size {
	case 1:
		data[off] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(data[off:], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(data[off:], uint32(val))
	default:
		binary.LittleEndian.PutUint64(data[off:], val)
	}
}
