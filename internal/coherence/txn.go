package coherence

import (
	"fmt"

	"bbb/internal/cache"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/trace"
)

type txnKind uint8

const (
	txnLoad txnKind = iota
	txnStore
	txnCAS
	txnPrefetch
	txnClwb
)

// accessTxn is one in-flight hierarchy access. The access paths used to
// chain five-plus capturing closures per operation (admission retry → lock
// acquire → miss fill → commit re-check → scheduled completion); the txn
// carries that state in plain fields plus a fixed set of callbacks bound
// once at allocation, and a freelist recycles completed transactions, so a
// steady-state access allocates nothing. The callback sequence — and with
// it the engine's event order — is unchanged from the closure form.
type accessTxn struct {
	h    *Hierarchy
	next *accessTxn // freelist link

	kind       txnKind
	core       int
	addr       memory.Addr
	la         memory.Addr
	size       int
	val        uint64 // store value / CAS new value
	old        uint64 // CAS expected value
	res        uint64 // load result / CAS previous value
	persistent bool
	rejected   bool // persist admission already counted one rejection

	done    func()       // store / prefetch / clwb completion
	doneVal func(uint64) // load / CAS completion

	line *cache.Line
	lat  engine.Cycle

	// The line lock's page and bit, set when the transaction asks for it.
	lockPg  *lockPage
	lockBit uint

	// L2 miss fill state.
	fillFrom engine.Cycle
	fillRead bool
	fillBuf  [memory.LineSize]byte

	// In-flight L2 eviction state; a txn evicts at most one victim at a
	// time, looping through fillStep between victims.
	evLA    memory.Addr
	evDirty bool
	evData  [memory.LineSize]byte

	clwbData [memory.LineSize]byte

	// Callbacks bound to this txn at allocation and reused for its
	// lifetime in the pool.
	admitFn     func()
	lockedFn    func()
	commitFn    func()
	finishFn    func()
	fillStepFn  func()
	evictDoneFn func(writeBack bool)
	clwbWriteFn func()
}

// getTxn takes a transaction from the freelist, allocating (and binding its
// callbacks) only when the pool is empty.
func (h *Hierarchy) getTxn() *accessTxn {
	t := h.txnFree
	if t == nil {
		t = &accessTxn{h: h}
		t.admitFn = func() { t.h.admitStore(t) }
		t.lockedFn = func() { t.h.locked(t) }
		t.commitFn = func() { t.h.commit(t) }
		t.finishFn = func() { t.h.finish(t) }
		t.fillStepFn = func() { t.h.fillStep(t) }
		t.evictDoneFn = func(writeBack bool) { t.h.evictDone(t, writeBack) }
		t.clwbWriteFn = func() {
			t.h.controllerFor(t.la).Write(t.la, t.clwbData, t.finishFn)
		}
		return t
	}
	h.txnFree = t.next
	t.next = nil
	return t
}

func (h *Hierarchy) putTxn(t *accessTxn) {
	t.done, t.doneVal, t.line = nil, nil, nil
	t.rejected, t.fillRead = false, false
	t.next = h.txnFree
	h.txnFree = t
}

// admitStore reserves persist-buffer capacity before entering the coherence
// transaction so CommitStore cannot fail mid-protocol (§III-D invariant 1:
// stores enter the persistence domain in order).
func (h *Hierarchy) admitStore(t *accessTxn) {
	if t.persistent && !h.policy.CanAcceptStore(t.core, t.la) {
		if !t.rejected {
			t.rejected = true
			h.nPersistRejected.Inc()
		}
		h.policy.OnSpace(t.core, t.admitFn)
		return
	}
	h.lockTxn(t)
}

// locked dispatches a transaction that has just obtained its line lock.
//
//bbbvet:locked lineLock
func (h *Hierarchy) locked(t *accessTxn) {
	switch t.kind {
	case txnLoad:
		h.lockedLoad(t)
	case txnClwb:
		h.lockedClwb(t)
	case txnPrefetch:
		h.nPrefetches.Inc()
		h.lockedStore(t)
	default:
		h.lockedStore(t)
	}
}

// lockedLoad implements the read path with the line lock held: L1 hit, or
// L2 fetch (with owner intervention), or memory fill.
//
//bbbvet:locked lineLock
func (h *Hierarchy) lockedLoad(t *accessTxn) {
	if line := h.l1s[t.core].Lookup(t.la); line != nil {
		h.nLoadHits.Inc()
		t.line, t.lat = line, h.cfg.L1Lat
		h.commit(t)
		return
	}
	h.nLoadMisses.Inc()
	if l2line := h.l2.Lookup(t.la); l2line != nil {
		h.nL2Hits.Inc()
		extra := h.cfg.L2Lat
		if l2line.Owner >= 0 && l2line.Owner != t.core {
			// Intervention: the owner may hold newer data (M). Downgrade
			// M->S, merge the data into L2 and mark it dirty; per Fig. 6(c)
			// no memory writeback happens here in any scheme — under BBB
			// the bbPB entry simply stays where it is.
			h.nInterventions.Inc()
			h.eng.EmitTrace(trace.KindIntervene, l2line.Owner, t.la, uint64(t.core))
			oline := h.l1s[l2line.Owner].Probe(t.la)
			if oline == nil {
				panic(fmt.Sprintf("coherence: directory owner %d lacks line %#x", l2line.Owner, t.la))
			}
			if oline.State == cache.Modified {
				l2line.Data = oline.Data
				l2line.Dirty = true
				l2line.Persistent = l2line.Persistent || oline.Persistent
			}
			oline.State = cache.Shared
			oline.Dirty = false
			l2line.Owner = -1
			extra += h.cfg.RemoteLat
		}
		if l2line.Owner == t.core {
			l2line.Owner = -1 // self re-fetch after L1 eviction
		}
		h.installLoad(t, l2line, !l2line.NoSharers(), extra)
		return
	}
	h.nL2Misses.Inc()
	t.fillFrom = h.eng.Now()
	t.fillRead = false
	h.fillStep(t)
}

// lockedStore implements the write path (stores, CAS, prefetches) with the
// line lock held: obtain the line in M state in the core's L1, then commit.
//
//bbbvet:locked lineLock
func (h *Hierarchy) lockedStore(t *accessTxn) {
	l1 := h.l1s[t.core]
	line := l1.Lookup(t.la)
	switch {
	case line != nil && (line.State == cache.Modified || line.State == cache.Exclusive):
		// The directory already names t.core owner: an L1 line is only ever
		// E or M while its L2 line's Owner is that core (CheckInvariants
		// pins this), so the E->M upgrade is L1-local.
		h.nStoreHits.Inc()
		line.State = cache.Modified
		t.line, t.lat = line, h.cfg.L1Lat
		h.commit(t)

	case line != nil && line.State == cache.Shared:
		// Upgrade: invalidate the other sharers through the directory.
		h.nStoreUpgrades.Inc()
		l2line := h.l2Line(t.la)
		n := h.invalidateOthers(t.core, t.la, l2line)
		l2line.Owner = t.core
		line.State = cache.Modified
		lat := h.cfg.L1Lat + h.cfg.L2Lat
		if n > 0 {
			lat += h.cfg.RemoteLat
		}
		t.line, t.lat = line, lat
		h.commit(t)

	default:
		h.nStoreMisses.Inc()
		if l2line := h.l2.Lookup(t.la); l2line != nil {
			h.nL2Hits.Inc()
			n := h.invalidateOthers(t.core, t.la, l2line)
			extra := h.cfg.L2Lat
			if n > 0 {
				extra += h.cfg.RemoteLat
			}
			h.installStore(t, l2line, extra)
			return
		}
		h.nL2Misses.Inc()
		t.fillFrom = h.eng.Now()
		t.fillRead = false
		h.fillStep(t)
	}
}

// installLoad places the fetched line into the core's L1 with read intent
// and commits.
//
//bbbvet:locked lineLock
func (h *Hierarchy) installLoad(t *accessTxn, l2line *cache.Line, shared bool, extra engine.Cycle) {
	st := cache.Exclusive
	if shared {
		st = cache.Shared
	}
	line := h.l1Install(t.core, t.la, st, &l2line.Data)
	l2line.AddSharer(t.core)
	if st == cache.Exclusive {
		l2line.Owner = t.core
	}
	t.line, t.lat = line, h.cfg.L1Lat+extra
	h.commit(t)
}

// installStore places the fetched line into the core's L1 in M state and
// commits.
//
//bbbvet:locked lineLock
func (h *Hierarchy) installStore(t *accessTxn, l2line *cache.Line, extra engine.Cycle) {
	line := h.l1Install(t.core, t.la, cache.Modified, &l2line.Data)
	l2line.AddSharer(t.core)
	l2line.Owner = t.core
	t.line, t.lat = line, h.cfg.L1Lat+extra
	h.commit(t)
}

// fillStep advances an L2 miss fill: free a victim way (evicting, possibly
// asynchronously, one line at a time), read the line from memory, then
// re-check the way — a concurrent fill to the same set can consume the way
// freed before the read was issued — and install.
//
//bbbvet:locked lineLock
func (h *Hierarchy) fillStep(t *accessTxn) {
	victim := h.l2.Victim(t.la)
	if victim.State != cache.Invalid {
		h.evictL2LineTxn(t, victim)
		return
	}
	if !t.fillRead {
		t.fillRead = true
		h.controllerFor(t.la).ReadInto(t.la, &t.fillBuf, t.fillStepFn)
		return
	}
	h.l2.Fill(victim, t.la, cache.Exclusive, &t.fillBuf)
	victim.Persistent = h.layout.Persistent(t.la)
	extra := h.cfg.L2Lat + (h.eng.Now() - t.fillFrom)
	h.eng.Metrics.Observe("l2.miss_latency", uint64(extra))
	if t.kind == txnLoad {
		h.installLoad(t, victim, false, extra)
	} else {
		h.installStore(t, victim, extra)
	}
}

// evictL2LineTxn removes one valid L2 line on behalf of t's fill:
// back-invalidate L1 copies (merging dirty data) — the directory dies with
// the line — then let the persistency policy decide between writeback and
// silent drop. The fill resumes via evictDone once the way is free. The
// filling transaction serializes evictions; the victim itself has no
// transaction in flight (it is resident, not being fetched).
//
//bbbvet:locked lineLock
func (h *Hierarchy) evictL2LineTxn(t *accessTxn, victim *cache.Line) {
	la := victim.Addr
	h.nL2Evictions.Inc()

	// Back-invalidation (inclusion): pull in any fresher L1 data.
	for c := 0; victim.Sharers != 0 && c < h.cfg.Cores; c++ {
		if !victim.IsSharer(c) {
			continue
		}
		old, ok := h.l1s[c].Invalidate(la)
		if !ok {
			panic(fmt.Sprintf("coherence: sharer %d lacks line %#x on back-invalidation", c, la))
		}
		if old.State == cache.Modified && old.Dirty {
			victim.Data = old.Data
			victim.Dirty = true
			victim.Persistent = victim.Persistent || old.Persistent
		}
		victim.DropSharer(c)
		h.nBackInvals.Inc()
	}
	victim.Owner = -1

	t.evLA = la
	t.evData = victim.Data
	t.evDirty = victim.Dirty
	persistent := victim.Persistent
	victim.State = cache.Invalid

	h.policy.OnLLCEvict(la, persistent, t.evDirty, t.evictDoneFn)
}

// evictDone applies the policy's writeback decision for t's in-flight
// eviction and loops back into the fill.
func (h *Hierarchy) evictDone(t *accessTxn, writeBack bool) {
	wb := uint64(0)
	if writeBack {
		wb = 1
	}
	h.eng.EmitTrace(trace.KindLLCEvict, -1, t.evLA, wb)
	if writeBack {
		h.nWritebacks.Inc()
		h.controllerFor(t.evLA).Write(t.evLA, t.evData, nil)
	} else if t.evDirty {
		h.nWritebacksSkipped.Inc()
	}
	h.fillStep(t)
}

// lockedClwb implements Clwb with the line lock held.
//
//bbbvet:locked lineLock
func (h *Hierarchy) lockedClwb(t *accessTxn) {
	la := t.la
	lat := h.cfg.L1Lat + h.cfg.L2Lat
	l2line := h.l2.Probe(la)
	var freshest *cache.Line
	if l2line != nil && l2line.Owner >= 0 {
		freshest = h.l1s[l2line.Owner].Probe(la)
	}
	if freshest == nil || !freshest.Dirty {
		freshest = l2line
	}
	if freshest == nil || !freshest.Dirty {
		h.nClwbClean.Inc()
		h.eng.Schedule(lat, t.finishFn)
		return
	}
	h.nClwbWritebacks.Inc()
	t.clwbData = freshest.Data
	// clwb retains the copy but leaves it clean everywhere.
	if l2line != nil {
		l2line.Dirty = false
	}
	for c := range h.l1s {
		if l := h.l1s[c].Probe(la); l != nil {
			l.Dirty = false
			if l.State == cache.Modified && l2line != nil {
				l2line.Data = t.clwbData
			}
		}
	}
	h.eng.Schedule(lat, t.clwbWriteFn)
}

// commit is the atomic mutation point: the line is resident (in M state for
// writes) and the latency is known. Persisting stores re-check persist
// capacity here, holding the line lock: the early admission reservation can
// be invalidated while a miss was outstanding (an LLC eviction may have
// force-drained the entry we meant to coalesce into), and the store stays
// invisible until it can also persist (§III-D invariant 3).
//
//bbbvet:locked lineLock
func (h *Hierarchy) commit(t *accessTxn) {
	switch t.kind {
	case txnLoad:
		t.res = readValue(&t.line.Data, memory.LineOffset(t.addr), t.size)
		h.eng.Schedule(t.lat, t.finishFn)

	case txnPrefetch:
		h.eng.Schedule(t.lat, t.finishFn)

	case txnStore:
		if t.persistent && !h.policy.CanAcceptStore(t.core, t.la) {
			h.nCommitWaits.Inc()
			h.policy.OnSpace(t.core, t.commitFn)
			return
		}
		writeValue(&t.line.Data, memory.LineOffset(t.addr), t.size, t.val)
		t.line.Dirty = true
		t.line.Persistent = t.persistent
		if t.persistent {
			h.nPersisting.Inc()
			h.eng.EmitTrace(trace.KindStoreCommit, t.core, t.la, t.val)
			h.policy.CommitStore(t.core, t.la, &t.line.Data)
		}
		h.eng.Schedule(t.lat, t.finishFn)

	case txnCAS:
		if t.persistent && !h.policy.CanAcceptStore(t.core, t.la) {
			h.nCommitWaits.Inc()
			h.policy.OnSpace(t.core, t.commitFn)
			return
		}
		h.nAtomics.Inc()
		h.eng.EmitTrace(trace.KindAtomic, t.core, t.la, t.old)
		prev := readValue(&t.line.Data, memory.LineOffset(t.addr), t.size)
		t.res = prev
		if prev == t.old {
			writeValue(&t.line.Data, memory.LineOffset(t.addr), t.size, t.val)
			t.line.Dirty = true
			t.line.Persistent = t.persistent
			if t.persistent {
				h.nPersisting.Inc()
				// A successful persistent CAS is a persisting store commit;
				// emit the commit event so durability provenance tracks it
				// like any store.
				h.eng.EmitTrace(trace.KindStoreCommit, t.core, t.la, t.val)
				h.policy.CommitStore(t.core, t.la, &t.line.Data)
			}
		} else if t.persistent {
			// The RFO already fired OnRemoteInvalidate, which migrates the
			// line's persist-buffer entry away from the previous owner on
			// the promise that this core's CommitStore re-inserts the
			// merged data. A failed CAS commits no store, but the promise
			// must still be kept: hand the unchanged line back to the
			// policy, or a visible-but-undrained store would silently
			// leave the persistence domain (fatal under the battery
			// schemes, whose caches are volatile). The CanAcceptStore
			// check above reserved the slot either way.
			h.policy.CommitStore(t.core, t.la, &t.line.Data)
		}
		h.eng.Schedule(t.lat+2, t.finishFn)

	default:
		panic(fmt.Sprintf("coherence: commit of unknown txn kind %d", t.kind))
	}
}

// finish releases the line lock, recycles the transaction, and delivers the
// completion. Recycling before the callback lets a completion that issues a
// new access (the common pattern: a core's store drain completion pumps the
// next store) reuse the same transaction immediately.
func (h *Hierarchy) finish(t *accessTxn) {
	h.unlock(t)
	kind, res := t.kind, t.res
	done, doneVal := t.done, t.doneVal
	h.putTxn(t)
	switch kind {
	case txnLoad, txnCAS:
		doneVal(res)
	case txnPrefetch:
		if done != nil {
			done()
		}
	default: // txnStore, txnClwb
		done()
	}
}
