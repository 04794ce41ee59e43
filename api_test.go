package bbb

import (
	"math"
	"strings"
	"testing"
)

// scaled returns options for a proportionally scaled machine: smaller
// caches matched to smaller workloads, keeping the cache-pressure regime of
// the paper's full-size runs.
func scaled(ops int) Options {
	return Options{OpsPerThread: ops, L1Size: 8 * 1024, L2Size: 64 * 1024}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 7 {
		t.Fatalf("Workloads() = %v, want the 7 Table IV rows", ws)
	}
	if ws[0] != "rtree" || ws[6] != "swapC" {
		t.Fatalf("unexpected order: %v", ws)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run("bogus", SchemeBBB, Options{}); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestRunBasics(t *testing.T) {
	r := MustRun("hashmap", SchemeBBB, scaled(100))
	if r.Cycles == 0 || r.Stores == 0 || r.PersistingStores == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.Scheme != SchemeBBB {
		t.Fatal("scheme not recorded")
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"pmem", "eadr", "bbb", "bbb-proc", "bep", "nvcache"} {
		if _, err := ParseScheme(name); err != nil {
			t.Fatalf("ParseScheme(%q): %v", name, err)
		}
	}
	if _, err := ParseScheme("whisper"); err == nil {
		t.Fatal("bad scheme should error")
	}
}

func TestSchemeTraitsTable1(t *testing.T) {
	pm := SchemeTraits(SchemePMEM)
	if pm.SWComplexity != "High" || !pm.ExplicitPersist {
		t.Fatalf("PMEM traits wrong: %+v", pm)
	}
	bb := SchemeTraits(SchemeBBB)
	if bb.PersistInsts != "None" || bb.PoPLocation != "bbPB/L1D" || bb.ExplicitPersist {
		t.Fatalf("BBB traits wrong: %+v", bb)
	}
	if !SchemeTraits(SchemeEADR).BatteryBackedSB {
		t.Fatal("eADR must battery-back the store buffer")
	}
}

func TestFig7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	f := RunFig7(scaled(200))
	if len(f.Rows) != 7 {
		t.Fatalf("Fig7 rows = %d", len(f.Rows))
	}
	// Paper shape: BBB-32 within a few percent of eADR; BBB-1024 ~equal;
	// write overhead shrinking to ~zero at 1024 entries.
	if f.MeanExecOverheadBBB32 > 0.15 {
		t.Fatalf("BBB-32 mean exec overhead %.1f%% too high", 100*f.MeanExecOverheadBBB32)
	}
	if f.MeanWriteOverheadBBB1024 > 0.05 {
		t.Fatalf("BBB-1024 write overhead %.1f%% should be ~0", 100*f.MeanWriteOverheadBBB1024)
	}
	for _, r := range f.Rows {
		if r.ExecBBB1024 > r.ExecBBB32*1.1 {
			t.Fatalf("%s: 1024-entry bbPB slower than 32-entry by >10%%", r.Workload)
		}
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	pts := RunFig8(scaled(150), []int{1, 8, 32, 256})
	if len(pts) != 4 {
		t.Fatalf("Fig8 points = %d", len(pts))
	}
	// Normalization anchor.
	if pts[0].Rejections != 1 || pts[0].ExecTime != 1 || pts[0].Drains != 1 {
		t.Fatalf("1-entry point not normalized: %+v", pts[0])
	}
	// Monotone shape: rejections collapse with size; exec time does not
	// increase; drains fall as coalescing grows.
	last := pts[len(pts)-1]
	if last.Rejections > 0.1 {
		t.Fatalf("rejections at 256 entries = %.3f of 1-entry, want near zero", last.Rejections)
	}
	if last.ExecTime > 1.0 {
		t.Fatalf("exec time grew with bbPB size: %.3f", last.ExecTime)
	}
	if last.Drains >= 1.0 {
		t.Fatalf("drains did not fall with bbPB size: %.3f", last.Drains)
	}
}

func TestTable4Measured(t *testing.T) {
	rows := RunTable4(scaled(120))
	if len(rows) != 7 {
		t.Fatalf("Table4 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredPct <= 0 || r.MeasuredPct >= 100 {
			t.Fatalf("%s: measured %%P-stores = %.1f out of range", r.Workload, r.MeasuredPct)
		}
	}
}

func TestDrainThresholdAblation(t *testing.T) {
	pts, err := RunDrainThresholdAblation("hashmap", scaled(120), []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// A lower threshold drains more eagerly: at least as many NVMM writes.
	if pts[0].NVMMWrites < pts[1].NVMMWrites {
		t.Fatalf("eager threshold wrote less (%d) than lazy (%d)", pts[0].NVMMWrites, pts[1].NVMMWrites)
	}
}

func TestWPQDepthAblation(t *testing.T) {
	pts, err := RunWPQDepthAblation("mutateNC", scaled(120), []int{4, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].FullStalls < pts[1].FullStalls {
		t.Fatalf("shallow WPQ (%d stalls) should stall at least as much as deep (%d)",
			pts[0].FullStalls, pts[1].FullStalls)
	}
}

func TestSchemeComparisonCoversAllSchemes(t *testing.T) {
	rows, err := RunSchemeComparison("mutateNC", scaled(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want all 6 schemes", len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 {
			t.Fatalf("%v: zero cycles", r.Scheme)
		}
		if r.WearMax == 0 {
			t.Fatalf("%v: wear tracking missing", r.Scheme)
		}
	}
}

// TestModelCheckAPI drives the model checker through the public API. The
// base-only case (MaxImages 1) is the flush-on-fail crash campaign: one
// image per crash point, and the battery leaves barrier-free code
// consistent.
func TestModelCheckAPI(t *testing.T) {
	o := scaled(150)
	o.Threads = 4
	o.NoBarriers = true
	t.Run("base-only", func(t *testing.T) {
		rep, err := ModelCheck("linkedlist", SchemeBBB, o, 5, 5_000, 10_000, MCBounds{MaxImages: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalViolating != 0 {
			t.Fatalf("BBB campaign inconsistent: %s", rep.String())
		}
		if len(rep.Points) != 5 || rep.TotalSets != 5 || !rep.SingleImage() {
			t.Fatalf("want 5 points with one image each: %s", rep.String())
		}
		if s := rep.String(); !strings.Contains(s, "points:   5") || !strings.Contains(s, "violating:     0") {
			t.Fatalf("summary line %q misses the point or violation count", s)
		}
	})
	t.Run("unknown-workload", func(t *testing.T) {
		if _, err := ModelCheck("nosuch", SchemeBBB, o, 5, 5_000, 10_000, MCBounds{MaxImages: 1}); err == nil {
			t.Fatal("unknown workload model-checked without error")
		}
	})
}

func TestProcSideWriteRatioAboveOne(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	ratio := ProcSideWriteRatio(scaled(150))
	if ratio <= 1.0 {
		t.Fatalf("proc-side write ratio = %.2f, want > 1 (paper ~2.8x)", ratio)
	}
	t.Logf("proc-side/eADR write ratio = %.2fx (paper ~2.8x)", ratio)
}

func TestSeedSweepStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	sw, err := RunSeedSweep("hashmap", scaled(150), []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Seeds != 3 {
		t.Fatalf("seeds = %d", sw.Seeds)
	}
	// BBB-32 should be close to eADR on every seed: a tight distribution.
	if sw.ExecMean < 0.8 || sw.ExecMean > 1.3 {
		t.Fatalf("exec mean = %.3f out of plausible band", sw.ExecMean)
	}
	if sw.ExecStdDev > 0.1 {
		t.Fatalf("exec ratio unstable across seeds: stddev %.3f", sw.ExecStdDev)
	}
	t.Logf("exec %.3f±%.3f writes %.3f±%.3f", sw.ExecMean, sw.ExecStdDev, sw.WriteMean, sw.WriteStdDev)
}

// TestFig7TinyScaleReportsZeroWrites runs Figure 7 at a scale where the
// BBB-1024 runs never write NVMM. The zero write ratio must come out as a
// mean write overhead of -1 (a geometric mean of 0), not a panic.
func TestFig7TinyScaleReportsZeroWrites(t *testing.T) {
	f := RunFig7(Options{Threads: 2, OpsPerThread: 60, L1Size: 8 << 10, L2Size: 64 << 10, Seed: 1})
	zero := false
	for _, r := range f.Rows {
		zero = zero || r.WritesBBB1024 == 0
	}
	if !zero {
		t.Fatal("no BBB-1024 write ratio is 0 at this scale; the test no longer covers the zero case")
	}
	if f.MeanWriteOverheadBBB1024 != -1 {
		t.Fatalf("BBB-1024 mean write overhead = %g, want -1 for a zero ratio", f.MeanWriteOverheadBBB1024)
	}
	if math.IsNaN(f.MeanWriteOverheadBBB32) {
		t.Fatal("BBB-32 mean write overhead is NaN")
	}
}
