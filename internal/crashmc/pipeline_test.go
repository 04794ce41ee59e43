package crashmc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/workload"
)

// gaugedList is the linked list with a recovery check that records how
// many checks run at once and which crash images they read.
type gaugedList struct {
	*workload.LinkedList
	inFlight, peak atomic.Int32
	mu             sync.Mutex
	images         map[*memory.Memory]bool
}

func (g *gaugedList) Check(mem *memory.Memory) error {
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	g.mu.Lock()
	g.images[mem] = true
	g.mu.Unlock()
	return g.LinkedList.Check(mem)
}

// TestPipelineBackpressure pins the pipeline's bounds on a check-bound
// campaign (barrier-free BEP, thousands of images): at most Parallel
// checks at once, and at most Parallel+1 distinct crash images over the
// whole walk — exactly one at width 1, where the walker checks every
// point itself. A walker that waits for a busy checker instead of checking
// the point itself never finishes at width 1.
func TestPipelineBackpressure(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		g := &gaugedList{LinkedList: workload.NewLinkedList(), images: map[*memory.Memory]bool{}}
		c := mcConfig(g, persistency.BEP, true)
		c.Points, c.Step, c.Parallel = 16, 3_000, width
		done := make(chan Report)
		go func() { done <- c.Run() }()
		var rep Report
		select {
		case rep = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("width %d: the campaign did not finish; the walker is blocked", width)
		}
		if rep.TotalDistinct <= 2*c.Points {
			t.Fatalf("width %d: %d images over %d points; the campaign is not check-bound", width, rep.TotalDistinct, c.Points)
		}
		if p := int(g.peak.Load()); p > width {
			t.Errorf("width %d: %d checks ran at once", width, p)
		}
		if n := len(g.images); n > width+1 || width == 1 && n != 1 {
			t.Errorf("width %d: checks read %d distinct crash images", width, n)
		}
		t.Logf("width %d: peak %d concurrent checks, %d images", width, g.peak.Load(), len(g.images))
	}
}

// panickyList's recovery check panics on every image.
type panickyList struct{ *workload.LinkedList }

func (panickyList) Check(*memory.Memory) error { panic("check panicked") }

// TestPipelineRepanicsOnCaller requires a check that panics on a checker
// goroutine to surface as a panic of Run on the caller's goroutine, as it
// does at width 1, rather than tear the process down.
func TestPipelineRepanicsOnCaller(t *testing.T) {
	for _, width := range []int{1, 3} {
		c := mcConfig(panickyList{workload.NewLinkedList()}, persistency.PMEM, true)
		c.Parallel = width
		func() {
			defer func() {
				if r := recover(); r != "check panicked" {
					t.Errorf("width %d: Run recovered %v, want the check's panic", width, r)
				}
			}()
			c.Run()
		}()
	}
}
