package crashmc

import (
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// The flush-on-fail crash-injection campaign is Run bounded to one image
// per crash point: the enumerator always streams the empty survival set
// first, and its image is the record's Base — the deterministic flush-on-
// fail image (System.CrashImage). These tests pin that bound to the
// paper's §II-A argument and to the fresh per-point runs it replaces.

// battery is the flush-on-fail budget of baseOnly's machine: 4 cores'
// 32-entry bbPBs, the 32-entry WPQ and its 32 waiters, and 4 32-entry
// store buffers.
const battery = 4*32 + 32 + 32 + 4*32

// baseOnly is a one-image campaign on tiny caches, which reorder persists
// aggressively: 4 threads × 300 ops, crashes at 12 points from cycle
// 5 000 every 7 000.
func baseOnly(w workload.Workload, s persistency.Scheme, noBarriers bool) Config {
	cfg := system.DefaultConfig(s)
	cfg.Hierarchy.L1Size = 1024
	cfg.Hierarchy.L2Size = 4096
	p := workload.DefaultParams()
	p.Threads = 4
	p.OpsPerThread = 300
	p.NoBarriers = noBarriers
	return Config{
		Workload:   w,
		Scheme:     s,
		System:     cfg,
		Params:     p,
		FirstCrash: 5_000,
		Step:       7_000,
		Points:     12,
		Bounds:     Bounds{MaxImages: 1},
	}
}

func barrierName(noBarriers bool) string {
	if noBarriers {
		return "no-barriers"
	}
	return "barriers"
}

// TestFlushOnFailCampaigns checks the §II-A matrix on the flush-on-fail
// image. A scheme whose battery covers the store buffer needs no barriers,
// PMEM and BEP need them: under such a guarantee an inconsistent image is
// a simulator bug. Figure 2 (PMEM, no barriers) must strand the list.
func TestFlushOnFailCampaigns(t *testing.T) {
	for _, name := range []string{"linkedlist", "hashmap"} {
		t.Run(name, func(t *testing.T) {
			for _, s := range persistency.Schemes() {
				t.Run(s.String(), func(t *testing.T) {
					for _, noBarriers := range []bool{false, true} {
						t.Run(barrierName(noBarriers), func(t *testing.T) {
							w, err := workload.ByName(name)
							if err != nil {
								t.Fatal(err)
							}
							rep := baseOnly(w, s, noBarriers).Run()
							switch {
							case persistency.TraitsOf(s).BatteryBackedSB || !noBarriers:
								if wit := rep.FirstWitness(); wit != nil {
									t.Fatalf("guaranteed combination inconsistent (%s), first at cycle %d: %s",
										rep.String(), wit.CrashCycle, wit.Err)
								}
							case s == persistency.PMEM && name == "linkedlist":
								if rep.TotalViolating == 0 {
									t.Fatalf("Figure 2 survived every crash point; the bug should reproduce (%s)", rep.String())
								}
							}
							t.Log(rep.String())
						})
					}
				})
			}
		})
	}
}

// TestBBBNoBarriersAlwaysConsistent pins the paper's headline claim on its
// own: BBB needs no persist barriers, so its flush-on-fail image of the
// barrier-free linked list is consistent at every crash point.
func TestBBBNoBarriersAlwaysConsistent(t *testing.T) {
	rep := baseOnly(workload.NewLinkedList(), persistency.BBB, true).Run()
	if wit := rep.FirstWitness(); wit != nil {
		t.Fatalf("BBB without barriers inconsistent at cycle %d: %s", wit.CrashCycle, wit.Err)
	}
}

func TestReportString(t *testing.T) {
	rep := baseOnly(workload.NewLinkedList(), persistency.BBB, true).Run()
	got := rep.String()
	for _, want := range []string{"linkedlist", persistency.BBB.String(), "NO barriers", "violating:     0"} {
		if !strings.Contains(got, want) {
			t.Errorf("report %q lacks %q", got, want)
		}
	}
	if rep.FirstWitness() != nil {
		t.Fatal("unexpected failure present")
	}
}

func TestCrashAtCycleZero(t *testing.T) {
	// A power failure before the first event: the durable image is exactly
	// what Setup wrote, which every checker must accept, and flush-on-fail
	// has nothing to drain.
	for _, s := range []persistency.Scheme{persistency.PMEM, persistency.BBB, persistency.BEP} {
		cc := baseOnly(workload.NewLinkedList(), s, true)
		cc.FirstCrash = 0
		cc.Points = 1
		rep := cc.Run()
		if rep.TotalViolating != 0 {
			t.Errorf("%v: pristine setup image inconsistent: %s", s, rep.FirstWitness().Err)
		}
		if rep.Points[0].Finished {
			t.Errorf("%v: nothing ran, yet the workload reports finished", s)
		}
		if rep.DrainedLinesMax != 0 {
			t.Errorf("%v: drained %d lines before any event executed", s, rep.DrainedLinesMax)
		}
	}
}

func TestCrashAfterWorkloadFinished(t *testing.T) {
	// The crash point lands after completion: the run finishes, every
	// store has long reached its domain, and the final image checks out.
	for _, s := range []persistency.Scheme{persistency.PMEM, persistency.BBB} {
		cc := baseOnly(workload.NewLinkedList(), s, s != persistency.PMEM)
		cc.Params.OpsPerThread = 40
		cc.FirstCrash = 50_000_000
		cc.Points = 1
		rep := cc.Run()
		if !rep.Points[0].Finished {
			t.Fatalf("%v: workload did not finish before cycle %d", s, cc.FirstCrash)
		}
		if rep.TotalViolating != 0 {
			t.Errorf("%v: completed run's image inconsistent: %s", s, rep.FirstWitness().Err)
		}
	}
}

func TestCrashMidForcedDrain(t *testing.T) {
	// Caches far smaller than the working set force LLC evictions of
	// bbPB-owned lines, so crashes land mid-forced-drain. Recovery must
	// still hold, and the flush-on-fail payload must stay within the
	// battery budget while actually exercising the drain path.
	cc := baseOnly(workload.NewLinkedList(), persistency.BBB, true)
	cc.System.Hierarchy.L1Size = 512
	cc.System.Hierarchy.L2Size = 1024
	cc.Points = 16
	cc.Step = 3_000
	rep := cc.Run()
	if wit := rep.FirstWitness(); wit != nil {
		t.Fatalf("BBB inconsistent mid-forced-drain at cycle %d: %s", wit.CrashCycle, wit.Err)
	}
	if rep.DrainedLinesMax > battery {
		t.Fatalf("drained %d lines, exceeding the battery budget %d", rep.DrainedLinesMax, battery)
	}
	if rep.DrainedLinesMax == 0 {
		t.Fatal("no crash point caught in-flight lines; the sweep missed every forced drain")
	}
}

func TestDrainBudgetBBBBounded(t *testing.T) {
	// The battery must be provisioned for the largest flush-on-fail
	// payload, which the persistence path's capacity bounds.
	rep := baseOnly(workload.NewHashmap(), persistency.BBB, true).Run()
	if rep.DrainedLinesMax > battery {
		t.Fatalf("BBB drained %d lines, exceeding the battery budget %d", rep.DrainedLinesMax, battery)
	}
	if rep.DrainedLinesMax == 0 {
		t.Fatal("no crash point drained anything")
	}
}

// TestWalkMatchesFreshRuns pins the walked one-image campaign to the
// per-point definition it replaces — rebuild, re-simulate to the crash
// point, crash, check the machine's image — at several checker counts:
// crash cycles, completion, drain reports, checker errors, the violating
// count and the drain maximum must all be equal, and each point must check
// exactly one survival set, the empty one, whose image has no overlay.
func TestWalkMatchesFreshRuns(t *testing.T) {
	type outcome struct {
		CrashCycle engine.Cycle
		Finished   bool
		Drain      persistency.DrainReport
		Err        string
	}
	emptyOverlay := sha256.Sum256(nil)
	for _, s := range persistency.Schemes() {
		for _, noBarriers := range []bool{false, true} {
			cc := baseOnly(workload.NewLinkedList(), s, noBarriers)
			var want []outcome
			wantViolating, wantDrainMax := 0, 0
			for _, at := range workload.EvenCycles(cc.FirstCrash, cc.Step, cc.Points) {
				w := workload.NewLinkedList()
				sys, drain, finished := workload.RunToCrash(w, s, cc.System, cc.Params, at)
				out := outcome{CrashCycle: at, Finished: finished, Drain: drain}
				if err := w.Check(sys.Mem); err != nil {
					out.Err = err.Error()
					wantViolating++
				}
				sys.Shutdown()
				want = append(want, out)
				wantDrainMax = max(wantDrainMax, drain.Lines())
			}
			for _, width := range []int{1, 2, 3} {
				cc.Parallel = width
				rep := cc.Run()
				var got []outcome
				for _, p := range rep.Points {
					out := outcome{CrashCycle: p.CrashCycle, Finished: p.Finished, Drain: p.Drain}
					if len(p.Violations) > 0 {
						out.Err = p.Violations[0].Err
					}
					got = append(got, out)
					if p.Sets != 1 || p.DistinctImages != 1 {
						t.Errorf("%v %s parallel=%d cycle %d: %d sets, %d images; want the one flush-on-fail image",
							s, barrierName(noBarriers), width, p.CrashCycle, p.Sets, p.DistinctImages)
					}
					for _, v := range p.Violations {
						if len(v.Survivors) != 0 || v.Hash != emptyOverlay {
							t.Errorf("%v %s parallel=%d cycle %d: violating image has survivors %v or a non-empty overlay",
								s, barrierName(noBarriers), width, p.CrashCycle, v.Survivors)
						}
					}
				}
				if !reflect.DeepEqual(got, want) || rep.TotalViolating != wantViolating || rep.DrainedLinesMax != wantDrainMax {
					t.Errorf("%v %s parallel=%d: walked campaign differs from fresh runs:\n got: %+v (violating %d, drained max %d)\nwant: %+v (violating %d, drained max %d)",
						s, barrierName(noBarriers), width, got, rep.TotalViolating, rep.DrainedLinesMax, want, wantViolating, wantDrainMax)
				}
			}
		}
	}
}
