package engine

import (
	"testing"
	"testing/quick"
)

// ScheduleArg must interleave with Schedule in strict scheduling order at
// equal cycles — the two forms share one sequence counter.
func TestScheduleArgOrdering(t *testing.T) {
	e := New()
	var got []uint64
	rec := func(v uint64) { got = append(got, v) }
	e.Schedule(5, func() { got = append(got, 1) })
	e.ScheduleArg(5, rec, 2)
	e.Schedule(5, func() { got = append(got, 3) })
	e.ScheduleArg(0, rec, 0)
	e.Run()
	want := []uint64{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
}

func TestScheduleArgNilFnPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	e.ScheduleArg(1, nil, 0)
}

// Property: the specialized heap dispatches any mix of Schedule and
// ScheduleArg in nondecreasing time order with FIFO ties.
func TestPropertyMixedDispatchOrder(t *testing.T) {
	f := func(delays []uint8) bool {
		e := New()
		var whens []Cycle
		var seqs []int
		rec := func(i uint64) {
			whens = append(whens, e.Now())
			seqs = append(seqs, int(i))
		}
		for i, d := range delays {
			i, d := i, Cycle(d%32)
			if i%2 == 0 {
				e.ScheduleArg(d, rec, uint64(i))
			} else {
				e.Schedule(d, func() { rec(uint64(i)) })
			}
		}
		e.Run()
		for i := 1; i < len(whens); i++ {
			if whens[i] < whens[i-1] {
				return false
			}
			if whens[i] == whens[i-1] && seqs[i] < seqs[i-1] {
				return false
			}
		}
		return len(whens) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The kernel contract the simulator's throughput rests on: once the heap's
// backing array has reached its high-water mark, Schedule, ScheduleArg and
// Step allocate nothing.
func TestScheduleStepZeroAllocSteadyState(t *testing.T) {
	e := New()
	fn := func() {}
	afn := func(uint64) {}
	// Warm every queue structure to its high-water mark: the ring, the
	// overflow heap, and all wheelSize timing-wheel buckets (each bucket's
	// FIFO keeps its capacity across laps, so one warm lap with the peak
	// per-cycle event count suffices).
	for lap := 0; lap < 2; lap++ {
		for i := 0; i < wheelSize+16; i++ {
			e.Schedule(Cycle(i), fn)
			e.ScheduleArg(Cycle(i), afn, uint64(i))
		}
		e.Run()
	}
	avg := testing.AllocsPerRun(500, func() {
		for i := 0; i < 16; i++ {
			e.Schedule(Cycle(i), fn)
			e.ScheduleArg(Cycle(i), afn, uint64(i))
		}
		for e.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.1f objects per run, want 0", avg)
	}
}

// BenchmarkEngineKernel measures raw scheduler throughput at a steady queue
// depth — the floor under every simulated event in the system.
func BenchmarkEngineKernel(b *testing.B) {
	e := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(64, fn)
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineKernelFig7Mix is BenchmarkEngineKernel on the schedule a
// Figure 7 run makes: of its events 2 % are same-cycle, 33 % are one cycle
// out, 48 % two, 3 % three to 63 and 14 % 64 to 1023, with 8 to 46 events
// pending.
func BenchmarkEngineKernelFig7Mix(b *testing.B) {
	// A fixed pseudo-random table of delays in the measured mix, and a
	// pending count that wanders between the measured bounds: each step is
	// followed by 0, 1 or 2 schedules, one on average.
	const minPending, maxPending = 8, 46
	delays := make([]Cycle, 4096)
	x := uint64(1)
	rnd := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for i := range delays {
		switch p := rnd(100); {
		case p < 2:
			delays[i] = 0
		case p < 35:
			delays[i] = 1
		case p < 83:
			delays[i] = 2
		case p < 86:
			delays[i] = Cycle(3 + rnd(61))
		default:
			delays[i] = Cycle(64 + rnd(960))
		}
	}
	fn := func() {}
	e := New()
	pending, next := 0, 0
	for ; pending < (minPending+maxPending)/2; pending++ {
		e.Schedule(delays[next], fn)
		next++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		pending--
		n := int(rnd(3))
		if pending+n < minPending {
			n = minPending - pending
		} else if pending+n > maxPending {
			n = maxPending - pending
		}
		for ; n > 0; n-- {
			e.Schedule(delays[next&(len(delays)-1)], fn)
			next++
			pending++
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineKernelArg is BenchmarkEngineKernel over the ScheduleArg
// form (the closure-free hot path used by the cpu package).
func BenchmarkEngineKernelArg(b *testing.B) {
	e := New()
	afn := func(uint64) {}
	for i := 0; i < 64; i++ {
		e.ScheduleArg(Cycle(i), afn, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(64, afn, uint64(i))
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
