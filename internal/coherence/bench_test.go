package coherence

import "testing"

// BenchmarkCoherence times one access through the hierarchy end to end —
// issue, line lock, the engine events it schedules, completion — on three
// paths: an L1 load hit; a store upgrade, where core 1's load first
// re-shares the line (an intervention) and core 0's store then upgrades it
// from S to M (so one op is those two transactions); and an L2 miss, a load
// streaming over four times the L2 so every access misses and evicts.
func BenchmarkCoherence(b *testing.B) {
	load := func(uint64) {}
	store := func() {}
	b.Run("l1_load_hit", func(b *testing.B) {
		r := newRig(b, DefaultConfig(), nil)
		a := r.nv(0)
		r.h.Load(0, a, 8, load)
		r.eng.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.h.Load(0, a, 8, load)
			r.eng.Run()
		}
	})
	b.Run("store_upgrade", func(b *testing.B) {
		r := newRig(b, DefaultConfig(), nil)
		a := r.nv(0)
		r.h.Store(0, a, 8, 1, store)
		r.eng.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.h.Load(1, a, 8, load)
			r.eng.Run()
			r.h.Store(0, a, 8, uint64(i), store)
			r.eng.Run()
		}
		b.StopTimer()
		if r.h.Stats.Get("l1.store_upgrades") < uint64(b.N) {
			b.Fatalf("%d store upgrades in %d ops", r.h.Stats.Get("l1.store_upgrades"), b.N)
		}
	})
	b.Run("l2_miss", func(b *testing.B) {
		cfg := DefaultConfig()
		r := newRig(b, cfg, nil)
		lines := uint64(4 * cfg.L2Size / 64)
		for n := uint64(0); n < lines; n++ { // one lap: every page materialized, every set full
			r.h.Load(0, r.dr(n), 8, load)
			r.eng.Run()
		}
		misses := r.h.Stats.Get("l2.misses")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.h.Load(0, r.dr(uint64(i)%lines), 8, load)
			r.eng.Run()
		}
		b.StopTimer()
		if got := r.h.Stats.Get("l2.misses") - misses; got != uint64(b.N) {
			b.Fatalf("%d L2 misses in %d ops", got, b.N)
		}
	})
}
