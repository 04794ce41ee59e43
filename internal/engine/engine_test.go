package engine

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same cycle: FIFO
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestZeroDelaySameCycle(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(0, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "c") })
	})
	e.Schedule(0, func() { order = append(order, "b") })
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestAt(t *testing.T) {
	e := New()
	fired := Cycle(0)
	e.At(42, func() { fired = e.Now() })
	e.Run()
	if fired != 42 {
		t.Fatalf("fired at %d, want 42", fired)
	}
}

func TestAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Cycle
	for _, d := range []Cycle{1, 5, 10, 11, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(10)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events up to cycle 10", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 5 {
		t.Fatalf("fired %v, want all 5", fired)
	}
}

func TestStop(t *testing.T) {
	e := New()
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("n = %d, want 1 (Stop should halt the loop)", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Fatalf("n = %d, want 2 after resuming", n)
	}
}

func TestTicker(t *testing.T) {
	e := New()
	count := 0
	e.Ticker(10, func() bool {
		count++
		return count < 5
	})
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
}

func TestNilFnPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	e.Schedule(1, nil)
}

// Property: events always fire in nondecreasing time order, and same-time
// events fire in scheduling order.
func TestPropertyMonotonicDispatch(t *testing.T) {
	f := func(delays []uint8) bool {
		e := New()
		type rec struct {
			when Cycle
			seq  int
		}
		var fired []rec
		for i, d := range delays {
			i, d := i, Cycle(d%64)
			e.Schedule(d, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq &&
				Cycle(delays[fired[i].seq]%64) == Cycle(delays[fired[i-1].seq]%64) {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRunsFIFOAfterCallback checks that continuations queued by one
// event run in the order they were queued, only after the event's callback
// has returned, and before Step returns.
func TestResumeRunsFIFOAfterCallback(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1, func() {
		e.Resume(func() { order = append(order, "first") })
		e.Resume(func() { order = append(order, "second") })
		e.Resume(func() { order = append(order, "third") })
		order = append(order, "callback")
	})
	e.Schedule(1, func() { order = append(order, "next event") })
	e.Step()
	want := []string{"callback", "first", "second", "third"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("after one Step: %v, want %v", order, want)
	}
	if e.ResumeQueued() {
		t.Fatal("continuations left queued after Step")
	}
	e.Run()
	if got := order[len(order)-1]; got != "next event" {
		t.Fatalf("last = %q, want the next event", got)
	}
}

// TestResumeQueueStaysCompact drives a long chain the way a program does —
// each continuation dispatches inline and queues the next — all inside one
// top-level Step, and requires the queue's backing array to stay small.
func TestResumeQueueStaysCompact(t *testing.T) {
	e := New()
	const n = 10_000
	runs := 0
	var cont func()
	cont = func() {
		runs++
		if runs < n {
			e.Schedule(1, func() { e.Resume(cont) })
		}
		for e.StepInline() {
		}
	}
	e.Schedule(0, func() { e.Resume(cont) })
	e.Run()
	if runs != n {
		t.Fatalf("ran %d continuations, want %d", runs, n)
	}
	if c := cap(e.resumes); c > 8 {
		t.Fatalf("resume queue grew to capacity %d over one Step", c)
	}
}

// TestStepInlineRefuses checks every condition under which a continuation
// must hand control back to the loop instead of dispatching.
func TestStepInlineRefuses(t *testing.T) {
	t.Run("bare Step", func(t *testing.T) {
		e := New()
		var inline bool
		e.Schedule(1, func() { e.Resume(func() { inline = e.StepInline() }) })
		e.Schedule(2, func() {})
		e.Step()
		if inline {
			t.Fatal("StepInline dispatched under a bare Step")
		}
		if e.Dispatched != 1 || e.Pending() != 1 {
			t.Fatalf("Dispatched = %d, Pending = %d; want 1 and 1", e.Dispatched, e.Pending())
		}
	})
	t.Run("past the RunUntil limit", func(t *testing.T) {
		e := New()
		var got []bool
		e.Schedule(10, func() {
			e.Resume(func() {
				got = append(got, e.StepInline()) // the event at 10: within the limit
				got = append(got, e.StepInline()) // the event at 11: past it
			})
		})
		e.Schedule(10, func() {})
		e.Schedule(11, func() {})
		e.RunUntil(10)
		if !reflect.DeepEqual(got, []bool{true, false}) || e.Now() != 10 || e.Pending() != 1 {
			t.Fatalf("StepInline = %v, now %d, pending %d; want [true false], 10, 1", got, e.Now(), e.Pending())
		}
		if e.StepInline() {
			t.Fatal("StepInline dispatched after RunUntil returned")
		}
	})
	t.Run("after Stop", func(t *testing.T) {
		e := New()
		var inline bool
		e.Schedule(1, func() {
			e.Stop()
			e.Resume(func() { inline = e.StepInline() })
		})
		e.Schedule(2, func() {})
		e.Run()
		if inline || e.Pending() != 1 {
			t.Fatalf("StepInline = %t with %d pending after Stop; want false, 1", inline, e.Pending())
		}
	})
	t.Run("continuation queued", func(t *testing.T) {
		e := New()
		var inline bool
		e.Schedule(1, func() {
			e.Resume(func() { inline = e.StepInline() })
			e.Resume(func() {})
		})
		e.Schedule(2, func() {})
		e.Run()
		if inline {
			t.Fatal("StepInline dispatched ahead of a queued continuation")
		}
	})
}
