package recovery

import (
	"reflect"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

func campaignConfig(w workload.Workload, s persistency.Scheme, noBarriers bool) CampaignConfig {
	cfg := system.DefaultConfig(s)
	cfg.Hierarchy.L1Size = 1024
	cfg.Hierarchy.L2Size = 4096 // tiny caches reorder persists aggressively
	p := workload.DefaultParams()
	p.Threads = 4
	p.OpsPerThread = 300
	p.NoBarriers = noBarriers
	return CampaignConfig{
		Workload:   w,
		Scheme:     s,
		System:     cfg,
		Params:     p,
		FirstCrash: 5_000,
		Step:       7_000,
		Points:     12,
	}
}

func TestBBBNoBarriersAlwaysConsistent(t *testing.T) {
	rep := campaignConfig(workload.NewLinkedList(), persistency.BBB, true).Run()
	if rep.Inconsistent != 0 {
		o, _ := rep.FirstFailure()
		t.Fatalf("BBB without barriers inconsistent at cycle %d: %v", o.CrashCycle, o.Err)
	}
}

func TestEADRNoBarriersAlwaysConsistent(t *testing.T) {
	rep := campaignConfig(workload.NewLinkedList(), persistency.EADR, true).Run()
	if rep.Inconsistent != 0 {
		o, _ := rep.FirstFailure()
		t.Fatalf("eADR without barriers inconsistent at cycle %d: %v", o.CrashCycle, o.Err)
	}
}

func TestPMEMWithBarriersAlwaysConsistent(t *testing.T) {
	rep := campaignConfig(workload.NewLinkedList(), persistency.PMEM, false).Run()
	if rep.Inconsistent != 0 {
		o, _ := rep.FirstFailure()
		t.Fatalf("PMEM with barriers (Figure 3) inconsistent at cycle %d: %v", o.CrashCycle, o.Err)
	}
}

func TestPMEMNoBarriersInconsistent(t *testing.T) {
	rep := campaignConfig(workload.NewLinkedList(), persistency.PMEM, true).Run()
	if rep.Inconsistent == 0 {
		t.Fatal("PMEM without barriers (Figure 2) survived all crash points; the bug should reproduce")
	}
	t.Log(rep.String())
}

func TestBEPWithEpochBarriersConsistent(t *testing.T) {
	// Buffered epoch persistency with the Figure 3 barriers (as epoch
	// markers): every crash leaves an epoch prefix, which keeps the list
	// walkable.
	rep := campaignConfig(workload.NewLinkedList(), persistency.BEP, false).Run()
	if rep.Inconsistent != 0 {
		o, _ := rep.FirstFailure()
		t.Fatalf("BEP with barriers inconsistent at cycle %d: %v", o.CrashCycle, o.Err)
	}
}

func TestBEPNoBarriersEventuallyInconsistent(t *testing.T) {
	// Without epoch markers everything shares one epoch, so same-epoch
	// coalescing lets a later head update persist with an earlier drain
	// slot — the same reordering hazard as Figure 2.
	cc := campaignConfig(workload.NewLinkedList(), persistency.BEP, true)
	cc.Points = 20
	rep := cc.Run()
	if rep.Inconsistent == 0 {
		t.Log("note: BEP without barriers survived this sweep; coalescing reordering is probabilistic")
	} else {
		t.Log(rep.String())
	}
}

func TestNVCacheNoBarriersConsistent(t *testing.T) {
	// NVCache closes the PoV/PoP gap with NVM cells, so barrier-free code
	// recovers, like BBB/eADR.
	rep := campaignConfig(workload.NewLinkedList(), persistency.NVCache, true).Run()
	if rep.Inconsistent != 0 {
		o, _ := rep.FirstFailure()
		t.Fatalf("NVCache inconsistent at cycle %d: %v", o.CrashCycle, o.Err)
	}
}

func TestBBBProcSideAlsoConsistent(t *testing.T) {
	rep := campaignConfig(workload.NewHashmap(), persistency.BBBProc, true).Run()
	if rep.Inconsistent != 0 {
		o, _ := rep.FirstFailure()
		t.Fatalf("BBB proc-side inconsistent at cycle %d: %v", o.CrashCycle, o.Err)
	}
}

func TestDrainBudgetBBBBounded(t *testing.T) {
	// The battery budget: bbPB entries + WPQ + store buffers. With 4 cores,
	// 32-entry bbPBs, a 32-entry WPQ and 32-entry SBs the drain can never
	// exceed 4*32 + 32 + 32 + 4*32 lines (WPQ waiters included).
	cc := campaignConfig(workload.NewHashmap(), persistency.BBB, true)
	rep := cc.Run()
	limit := 4*32 + 32 + 32 + 4*32
	if rep.DrainedLinesMax > limit {
		t.Fatalf("BBB drained %d lines, exceeding the battery budget %d", rep.DrainedLinesMax, limit)
	}
	if rep.DrainedLinesMax == 0 {
		t.Fatal("no crash point drained anything")
	}
}

func TestCrashAtCycleZero(t *testing.T) {
	// A power failure before the first event: the durable image is exactly
	// what Setup wrote, which every checker must accept, and flush-on-fail
	// has nothing to drain.
	for _, s := range []persistency.Scheme{persistency.PMEM, persistency.BBB, persistency.BEP} {
		cc := campaignConfig(workload.NewLinkedList(), s, true)
		cc.FirstCrash = 0
		cc.Points = 1
		rep := cc.Run()
		if rep.Inconsistent != 0 {
			o, _ := rep.FirstFailure()
			t.Errorf("%v: pristine setup image inconsistent: %v", s, o.Err)
		}
		if rep.Outcomes[0].Finished {
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
		cc := campaignConfig(workload.NewLinkedList(), s, s != persistency.PMEM)
		cc.Params.OpsPerThread = 40
		cc.FirstCrash = 50_000_000
		cc.Points = 1
		rep := cc.Run()
		out := rep.Outcomes[0]
		if !out.Finished {
			t.Fatalf("%v: workload did not finish before cycle %d", s, cc.FirstCrash)
		}
		if out.Err != nil {
			t.Errorf("%v: completed run's image inconsistent: %v", s, out.Err)
		}
	}
}

func TestCrashMidForcedDrain(t *testing.T) {
	// Caches far smaller than the working set force LLC evictions of
	// bbPB-owned lines, so crashes land mid-forced-drain. Recovery must
	// still hold, and the flush-on-fail payload must stay within the
	// battery budget (per-core bbPBs + WPQ + waiters + store buffers)
	// while actually exercising the drain path.
	cc := campaignConfig(workload.NewLinkedList(), persistency.BBB, true)
	cc.System.Hierarchy.L1Size = 512
	cc.System.Hierarchy.L2Size = 1024
	cc.Points = 16
	cc.Step = 3_000
	rep := cc.Run()
	if rep.Inconsistent != 0 {
		o, _ := rep.FirstFailure()
		t.Fatalf("BBB inconsistent mid-forced-drain at cycle %d: %v", o.CrashCycle, o.Err)
	}
	budget := 4*32 + 32 + 32 + 4*32
	if rep.DrainedLinesMax > budget {
		t.Fatalf("drained %d lines, exceeding the battery budget %d", rep.DrainedLinesMax, budget)
	}
	if rep.DrainedLinesMax == 0 {
		t.Fatal("no crash point caught in-flight lines; the sweep missed every forced drain")
	}
}

// TestWalkMatchesFreshRuns pins the walked campaign to the per-point
// definition it replaces — rebuild, re-simulate to the crash point, crash,
// check the machine's image — at several fan-out widths: outcomes, checker
// errors and the drain maximum must all be deep-equal.
func TestWalkMatchesFreshRuns(t *testing.T) {
	for _, s := range persistency.Schemes() {
		for _, noBarriers := range []bool{false, true} {
			cc := campaignConfig(workload.NewLinkedList(), s, noBarriers)
			want := Report{Scheme: s, Workload: cc.Workload.Name(), Barriers: !noBarriers}
			for i := 0; i < cc.Points; i++ {
				w := workload.NewLinkedList()
				at := cc.FirstCrash + engine.Cycle(i)*cc.Step
				sys, drain, finished := workload.RunToCrash(w, s, cc.System, cc.Params, at)
				out := Outcome{CrashCycle: at, Finished: finished, Drain: drain, Err: w.Check(sys.Mem)}
				want.Outcomes = append(want.Outcomes, out)
				if out.Err != nil {
					want.Inconsistent++
				}
				want.DrainedLinesMax = max(want.DrainedLinesMax, drain.Lines())
			}
			for _, width := range []int{1, 2, 3} {
				cc.Parallel = width
				if got := cc.Run(); !reflect.DeepEqual(got, want) {
					t.Errorf("%v nobarriers=%t parallel=%d: walked report differs from fresh runs:\n got: %+v\nwant: %+v",
						s, noBarriers, width, got, want)
				}
			}
		}
	}
}

func TestGuaranteesConsistency(t *testing.T) {
	cases := []struct {
		scheme   persistency.Scheme
		barriers bool
		want     bool
	}{
		{persistency.PMEM, true, true},
		{persistency.PMEM, false, false}, // Figure 2
		{persistency.BEP, true, true},
		{persistency.BEP, false, false},
		{persistency.EADR, false, true},
		{persistency.BBB, false, true},
		{persistency.BBBProc, false, true},
		{persistency.NVCache, false, true},
	}
	for _, tc := range cases {
		if got := GuaranteesConsistency(tc.scheme, tc.barriers); got != tc.want {
			t.Errorf("GuaranteesConsistency(%v, barriers=%v) = %v, want %v",
				tc.scheme, tc.barriers, got, tc.want)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := campaignConfig(workload.NewLinkedList(), persistency.BBB, true).Run()
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
	if _, failed := rep.FirstFailure(); failed {
		t.Fatal("unexpected failure present")
	}
}
