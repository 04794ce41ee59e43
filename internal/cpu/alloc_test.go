package cpu

import (
	"testing"

	"bbb/internal/memory"
)

// TestPersistBarrierZeroAlloc pins the variadic fast path: under the
// battery schemes PersistBarrier is free, and the cpu.PersistBarrier helper
// must keep it allocation-free too — a plain Env.PersistBarrier(addrs...)
// call through the interface forces the variadic backing array to escape,
// which at one barrier per workload operation was a measurable slice of the
// simulator's allocation pressure. The helper's concrete-type dispatch keeps
// the array on the caller's stack; this test fails if that path ever decays
// back to the escaping interface call.
func TestPersistBarrierZeroAlloc(t *testing.T) {
	r := newRig(t, 1, DefaultConfig()) // battery scheme: no ExplicitPersist, no EpochMode
	e := &env{core: r.cores[0]}
	a := r.nv(0)
	avg := testing.AllocsPerRun(1000, func() {
		PersistBarrier(e, a, a+memory.LineSize, a+2*memory.LineSize)
	})
	if avg != 0 {
		t.Fatalf("PersistBarrier allocates %.1f objects per call on the battery fast path, want 0", avg)
	}
}

// TestStoreBufferStallZeroAlloc runs a store loop that keeps the store
// buffer full, so the program parks on every few stores and is woken by a
// drain, and requires the steady state to allocate nothing: the waiter
// list must reuse its retained backing arrays across park/wake cycles, and
// the store-buffer ring its slots, both when drains pop the head (TSO) and
// when relaxed drains take interior entries past a missing head.
func TestStoreBufferStallZeroAlloc(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.SBEntries = 2
		name := "tso"
		if relaxed {
			cfg.SBEntries = 4
			cfg.RelaxedSBDrain = true
			name = "relaxed"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 1, cfg)
			c := r.cores[0]
			// 1024 lines overflow both caches, so drains miss and the SB
			// fills; under relaxed drains a store to a hot line follows
			// each one and drains past it.
			c.Start(func(e Env) {
				for i := uint64(0); ; i++ {
					Store64(e, r.nv(i%1024), i)
					if relaxed {
						Store64(e, r.nv(2048), i)
					}
				}
			})
			limit := uint64(2_000_000) // warm-up: every page, cache set and queue at its high-water mark
			r.eng.RunUntil(limit)
			stalls := c.Stats.Get("core.sb_full_stalls")
			reordered := c.Stats.Get("core.sb_reordered_drains")
			avg := testing.AllocsPerRun(100, func() {
				limit += 20_000
				r.eng.RunUntil(limit)
			})
			if c.Stats.Get("core.sb_full_stalls") == stalls {
				t.Fatal("the measured window never stalled on a full store buffer")
			}
			if relaxed && c.Stats.Get("core.sb_reordered_drains") == reordered {
				t.Fatal("the measured window never drained out of order")
			}
			if avg != 0 {
				t.Fatalf("full-store-buffer stall loop allocates %.1f objects per 20k cycles, want 0", avg)
			}
		})
	}
}
