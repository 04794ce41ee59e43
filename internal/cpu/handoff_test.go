package cpu

import (
	"fmt"
	"testing"

	"bbb/internal/memory"
)

// TestSoleProgramDrivesLoop checks that a program with no other program
// to wait for runs to completion on its own coroutine: one resume at the
// cycle-0 start and none after, however many requests it makes.
func TestSoleProgramDrivesLoop(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	c := r.cores[0]
	var sum uint64
	c.Start(func(e Env) {
		for i := uint64(0); i < 200; i++ {
			Store64(e, r.nv(i%16), i)
			sum += Load64(e, r.nv(i%16))
			e.Compute(3)
		}
	})
	r.eng.Run()
	if !c.Done() || sum != 199*200/2 {
		t.Fatalf("done=%t sum=%d, want a finished program summing to %d", c.Done(), sum, 199*200/2)
	}
	if c.switches != 2 {
		t.Fatalf("%d coroutine switches, want 2 (the start resume only)", c.switches)
	}
}

// TestWokenBehindQueuedResumeYields replies to two cores from one event:
// first to a core whose program is suspended, then to the core whose
// program is dispatching that event. The dispatching program must queue
// behind the other core's resume and yield, not run on first, and each
// must receive its own reply.
func TestWokenBehindQueuedResumeYields(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	a, b := r.cores[0], r.cores[1]
	var order []string
	var got [2]uint64
	prog := func(name string, i int) func(Env) {
		return func(e Env) {
			got[i] = e.(*env).do(request{kind: reqCompute, cycles: 1000})
			order = append(order, name)
			e.Compute(1)
		}
	}
	a.Start(prog("a", 0))
	b.Start(prog("b", 1))
	// a starts first, dispatches b's start and yields to it, so b is the
	// program dispatching the event at cycle 10.
	r.eng.Schedule(10, func() {
		if !b.driving || a.driving {
			t.Errorf("at cycle 10: a.driving=%t b.driving=%t, want b dispatching", a.driving, b.driving)
		}
		a.reply(7)
		b.reply(9)
	})
	r.eng.RunUntil(10)
	if fmt.Sprint(order) != "[a b]" || got != [2]uint64{7, 9} {
		t.Fatalf("resumed %v with %v, want [a b] with [7 9]", order, got)
	}
}

// TestInlineEventPanicReachesRunCaller panics in an engine event that the
// program's coroutine dispatches inline and requires the original value to
// come out of the engine's Run on the calling goroutine; the torn-down
// core must still stop cleanly.
func TestInlineEventPanicReachesRunCaller(t *testing.T) {
	type boom struct{}
	r := newRig(t, 1, DefaultConfig())
	c := r.cores[0]
	c.Start(func(e Env) {
		for i := 0; ; i++ {
			e.Compute(1)
		}
	})
	r.eng.Schedule(50, func() { panic(boom{}) })
	got := func() (v any) {
		defer func() { v = recover() }()
		r.eng.Run()
		return nil
	}()
	if got != (boom{}) {
		t.Fatalf("recovered %#v, want boom{}", got)
	}
	if c.switches != 2 {
		t.Fatalf("%d coroutine switches, want 2: the panicking event should have run inline", c.switches)
	}
	c.Stop()
}

// BenchmarkHandoff measures the program↔core handoff: every core runs a
// store/load loop over a few L1-resident lines, so the cost per Env op is
// mostly the handoff and the event dispatch it drives. It reports ns and
// coroutine switches per Env op; with one core the program drives the
// whole run without switching, with eight the switches show how often a
// different core's program has to run next.
func BenchmarkHandoff(b *testing.B) {
	for _, cores := range []int{1, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			r := newRig(b, cores, DefaultConfig())
			perCore := (b.N + cores - 1) / cores
			for i, c := range r.cores {
				base := r.nv(uint64(i * 64))
				c.Start(func(e Env) {
					for j := 0; j < perCore; j++ {
						a := base + memory.Addr(j/2%8)*memory.LineSize
						if j%2 == 0 {
							Store64(e, a, uint64(j))
						} else {
							Load64(e, a)
						}
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			r.eng.Run()
			b.StopTimer()
			var switches uint64
			for _, c := range r.cores {
				switches += c.switches
			}
			ops := float64(cores * perCore)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/envop")
			b.ReportMetric(float64(switches)/ops, "switches/envop")
		})
	}
}
