package cpu

import (
	"math/rand"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/trace"
)

// TestStoreBufferRingModel checks the ring against a plain slice under
// random pushes and removals: head removals (TSO) and interior ones
// (relaxed), with the live entries straddling the end of the ring.
func TestStoreBufferRingModel(t *testing.T) {
	const entries = 5
	b := newStoreBuffer(entries)
	var model []sbEntry
	rng := rand.New(rand.NewSource(1))
	wraps, interiorAcrossWrap := 0, 0
	for step := 0; step < 20000; step++ {
		if len(model) < entries && (len(model) == 0 || rng.Intn(2) == 0) {
			e := sbEntry{addr: memory.Addr(step) * 24, val: uint64(step)} // several entries per line
			b.push(e)
			model = append(model, e)
		} else {
			i := 0
			if rng.Intn(3) == 0 {
				i = rng.Intn(len(model))
			}
			if i > 0 && b.start+i >= entries {
				interiorAcrossWrap++
			}
			start := b.start
			if got := b.remove(i); got != model[i] {
				t.Fatalf("step %d: remove(%d) = %+v, want %+v", step, i, got, model[i])
			}
			if b.start < start {
				wraps++
			}
			model = append(model[:i], model[i+1:]...)
		}
		if b.len() != len(model) || b.full() != (len(model) == entries) {
			t.Fatalf("step %d: len %d full %v, model holds %d", step, b.len(), b.full(), len(model))
		}
		for i := range model {
			if *b.at(i) != model[i] {
				t.Fatalf("step %d: at(%d) = %+v, want %+v", step, i, *b.at(i), model[i])
			}
		}
	}
	if wraps < 2*entries || interiorAcrossWrap == 0 {
		t.Fatalf("weak coverage: %d wraps, %d interior removals across the wrap", wraps, interiorAcrossWrap)
	}
}

// commits returns the values of the persisting stores committed to the L1D,
// in commit order.
func commits(rec *trace.Recorder) []uint64 {
	var out []uint64
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindStoreCommit {
			out = append(out, ev.Aux)
		}
	}
	return out
}

// TestTSOStoreBufferWraps runs far more stores than the buffer holds, so
// its ring wraps many times with the buffer full: every store must reach
// the L1D in program order, and loads must forward the youngest buffered
// value wherever in the ring it sits.
func TestTSOStoreBufferWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBEntries = 4
	r := newRig(t, 1, cfg)
	r.eng.Trace = trace.New(1 << 16)
	const n = 40 * 4 // 40 wraps, more than 2×SBEntries
	r.cores[0].Start(func(e Env) {
		for i := uint64(1); i <= n; i++ {
			a := r.nv(i%64) + memory.Addr(i%8)*8 // 64 lines overflow the L1: drains miss
			Store64(e, a, i)
			if got := Load64(e, a); got != i {
				t.Errorf("load after store %d read %d", i, got)
			}
		}
	})
	r.eng.Run()
	c := r.cores[0]
	if !c.Done() {
		t.Fatal("program did not finish")
	}
	got := commits(r.eng.Trace)
	if len(got) != n {
		t.Fatalf("%d stores committed, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("commit %d wrote store %d: TSO drains in program order", i, v)
		}
	}
	if c.Stats.Get("core.sb_full_stalls") == 0 || c.Stats.Get("core.sb_reordered_drains") != 0 {
		t.Fatalf("want full-buffer stalls and no reordering, got %d stalls, %d reorders",
			c.Stats.Get("core.sb_full_stalls"), c.Stats.Get("core.sb_reordered_drains"))
	}
}

// TestRelaxedDrainAcrossWrap interleaves stores to a hot line, which stays
// writable, with stores to cold lines, which miss: under RelaxedSBDrain the
// hot stores drain past the cold head, from ring slots on both sides of the
// wrap. Same-line order must hold and every line must end at its last
// store.
func TestRelaxedDrainAcrossWrap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBEntries = 4
	cfg.RelaxedSBDrain = true
	r := newRig(t, 1, cfg)
	r.eng.Trace = trace.New(1 << 16)
	hot := r.nv(0)
	last := map[memory.Addr]uint64{}
	val := uint64(0)
	store := func(e Env, a memory.Addr) {
		val++
		Store64(e, a, val)
		last[a] = val
	}
	r.cores[0].Start(func(e Env) {
		for i := uint64(1); i <= 60; i++ {
			store(e, r.nv(1+i%48)) // cold: 48 lines overflow the L1
			store(e, hot)
			store(e, hot+8)
		}
		e.CompareAndSwap(r.nv(100), 8, 0, 1) // an atomic drains the buffer
		for a, v := range last {
			if got := Load64(e, a); got != v {
				t.Errorf("%#x ends at %d, want its last store %d", a, got, v)
			}
		}
	})
	c := r.cores[0]
	acrossWrap := 0
	for cycle := engine.Cycle(0); !c.Done() && cycle < 1_000_000; cycle++ {
		r.eng.RunUntil(cycle)
		if c.sbDraining && c.sbInFlight > 0 && c.sb.start+c.sbInFlight >= len(c.sb.ring) {
			acrossWrap++
		}
	}
	if !c.Done() {
		t.Fatal("program did not finish")
	}
	if c.Stats.Get("core.sb_reordered_drains") == 0 || acrossWrap == 0 {
		t.Fatalf("want out-of-order drains across the wrap, got %d reordered, %d cycles across the wrap",
			c.Stats.Get("core.sb_reordered_drains"), acrossWrap)
	}
	// Same-line order: each line's committed values rise.
	byLine := map[memory.Addr]uint64{}
	for _, ev := range r.eng.Trace.Events() {
		if ev.Kind != trace.KindStoreCommit {
			continue
		}
		if ev.Aux <= byLine[ev.Addr] {
			t.Fatalf("line %#x committed store %d after store %d", ev.Addr, ev.Aux, byLine[ev.Addr])
		}
		byLine[ev.Addr] = ev.Aux
	}
}

// TestLoadOverlapWaitsOnLogicalIndex: a load that partially overlaps a
// buffered store parks until the buffer has drained to that store's
// position in program order, wherever the ring has rotated it to.
func TestLoadOverlapWaitsOnLogicalIndex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBEntries = 4
	c := newRig(t, 1, cfg).cores[0]
	const a = memory.Addr(0x1000)
	for start := 0; start < cfg.SBEntries; start++ {
		for k := 0; k < cfg.SBEntries; k++ {
			c.sb = newStoreBuffer(cfg.SBEntries)
			c.sb.start = start
			for j := 0; j < cfg.SBEntries; j++ {
				addr := a + memory.Addr(j+1)*memory.LineSize
				if j == k {
					addr = a
				}
				c.sb.push(sbEntry{addr: addr, size: 8})
			}
			c.sbWaiters = c.sbWaiters[:0]
			c.issueLoad(request{kind: reqLoad, addr: a + 2, size: 2})
			if len(c.sbWaiters) != 1 || c.sbWaiters[0].n != k {
				t.Fatalf("ring start %d, overlapping store at %d: parked %+v, want one waiter for %d entries", start, k, c.sbWaiters, k)
			}
		}
	}
}
