package bbb

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (run `go test -bench=. -benchmem`); each benchmark
// reports the paper's metric as testing.B custom metrics, and the bbbench
// CLI prints the same data as formatted tables. EXPERIMENTS.md records
// paper-vs-measured values.

import (
	"runtime"
	"strconv"
	"testing"

	"bbb/internal/energy"
	"bbb/internal/workload"
)

// benchOptions keeps benchmark iterations affordable while staying in the
// cache-pressure regime of the paper's full-size runs.
func benchOptions() Options { return scaled(200) }

// BenchmarkTable4PStores measures the store mix of every Table IV workload.
func BenchmarkTable4PStores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := RunTable4(benchOptions())
		for _, r := range rows {
			b.ReportMetric(r.MeasuredPct, r.Workload+"_%Pstores")
		}
	}
}

// BenchmarkTable7DrainEnergy computes the eADR-vs-BBB draining energy.
func BenchmarkTable7DrainEnergy(b *testing.B) {
	m := energy.DefaultCostModel()
	var rows []energy.DrainCostRow
	for i := 0; i < b.N; i++ {
		rows = energy.DrainCosts(m, 32)
	}
	b.ReportMetric(rows[0].EADREnergyJ*1e3, "mobile_eADR_mJ")
	b.ReportMetric(rows[0].BBBEnergyJ*1e6, "mobile_BBB_uJ")
	b.ReportMetric(rows[0].EnergyRatio, "mobile_ratio_x")
	b.ReportMetric(rows[1].EADREnergyJ*1e3, "server_eADR_mJ")
	b.ReportMetric(rows[1].BBBEnergyJ*1e6, "server_BBB_uJ")
	b.ReportMetric(rows[1].EnergyRatio, "server_ratio_x")
}

// BenchmarkTable8DrainTime computes the eADR-vs-BBB draining time.
func BenchmarkTable8DrainTime(b *testing.B) {
	m := energy.DefaultCostModel()
	var rows []energy.DrainCostRow
	for i := 0; i < b.N; i++ {
		rows = energy.DrainCosts(m, 32)
	}
	b.ReportMetric(rows[0].EADRTimeS*1e3, "mobile_eADR_ms")
	b.ReportMetric(rows[0].BBBTimeS*1e6, "mobile_BBB_us")
	b.ReportMetric(rows[1].EADRTimeS*1e3, "server_eADR_ms")
	b.ReportMetric(rows[1].BBBTimeS*1e6, "server_BBB_us")
	b.ReportMetric(rows[0].TimeRatio, "mobile_ratio_x")
	b.ReportMetric(rows[1].TimeRatio, "server_ratio_x")
}

// BenchmarkTable9BatterySize computes the Table IX battery volumes.
func BenchmarkTable9BatterySize(b *testing.B) {
	m := energy.DefaultCostModel()
	var rows []energy.BatteryRow
	for i := 0; i < b.N; i++ {
		rows = energy.BatterySizes(m, 32)
	}
	for _, r := range rows {
		name := r.Platform[:6] + "_" + r.Scheme + "_" + r.Tech + "_mm3"
		b.ReportMetric(r.VolumeMM3, name)
	}
}

// BenchmarkTable10BatterySweep computes Table X's bbPB-size sweep.
func BenchmarkTable10BatterySweep(b *testing.B) {
	m := energy.DefaultCostModel()
	var rows []energy.BatterySweepRow
	for i := 0; i < b.N; i++ {
		rows = energy.BatterySweep(m)
	}
	for _, r := range rows {
		if r.Tech == "SuperCap" && (r.Entries == 32 || r.Entries == 1024) {
			b.ReportMetric(r.VolumeMM3, r.Platform[:6]+"_e"+strconv.Itoa(r.Entries)+"_mm3")
		}
	}
}

// BenchmarkFig7aExecutionTime reruns Figure 7(a): execution time of BBB-32
// and BBB-1024 normalized to eADR, per workload.
func BenchmarkFig7aExecutionTime(b *testing.B) {
	var f Fig7Result
	for i := 0; i < b.N; i++ {
		f = RunFig7(benchOptions())
	}
	for _, r := range f.Rows {
		b.ReportMetric(r.ExecBBB32, r.Workload+"_exec32_x")
	}
	b.ReportMetric(100*f.MeanExecOverheadBBB32, "mean_overhead_pct")
	b.ReportMetric(100*f.WorstExecOverheadBBB32, "worst_overhead_pct")
}

// BenchmarkFig7bNVMMWrites reruns Figure 7(b): NVMM writes normalized to
// eADR.
func BenchmarkFig7bNVMMWrites(b *testing.B) {
	var f Fig7Result
	for i := 0; i < b.N; i++ {
		f = RunFig7(benchOptions())
	}
	for _, r := range f.Rows {
		b.ReportMetric(r.WritesBBB32, r.Workload+"_writes32_x")
	}
	b.ReportMetric(100*f.MeanWriteOverheadBBB32, "mean32_overhead_pct")
	b.ReportMetric(100*f.MeanWriteOverheadBBB1024, "mean1024_overhead_pct")
}

// BenchmarkFig7ProcSideWrites reruns the §V-C processor-side comparison
// (the paper reports ~2.8x more NVMM writes than eADR).
func BenchmarkFig7ProcSideWrites(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = ProcSideWriteRatio(benchOptions())
	}
	b.ReportMetric(ratio, "procside_writes_x")
}

// BenchmarkFig8Sensitivity reruns Figure 8: bbPB-size sweep, geomean
// rejections / exec time / drains normalized to the 1-entry bbPB.
func BenchmarkFig8Sensitivity(b *testing.B) {
	sizes := []int{1, 4, 16, 32, 128, 1024}
	var pts []Fig8Point
	for i := 0; i < b.N; i++ {
		pts = RunFig8(scaled(150), sizes)
	}
	for _, p := range pts {
		b.ReportMetric(p.Rejections, "rej_e"+strconv.Itoa(p.Entries)+"_x")
		b.ReportMetric(p.ExecTime, "exec_e"+strconv.Itoa(p.Entries)+"_x")
		b.ReportMetric(p.Drains, "drains_e"+strconv.Itoa(p.Entries)+"_x")
	}
}

// BenchmarkAblationWPQDepth sweeps the NVMM write-pending-queue depth,
// showing where controller backpressure starts reaching the cores.
func BenchmarkAblationWPQDepth(b *testing.B) {
	depths := []int{4, 8, 16, 32, 64}
	res := make([]Result, len(depths))
	for i := 0; i < b.N; i++ {
		for j, d := range depths {
			res[j] = runWPQDepth(b, "mutateNC", benchOptions(), d)
		}
	}
	for j, r := range res {
		b.ReportMetric(float64(r.Cycles), "cycles_wpq"+strconv.Itoa(depths[j]))
		b.ReportMetric(float64(r.Counters.Get("nvmm.wpq_full_stalls")), "stalls_wpq"+strconv.Itoa(depths[j]))
	}
}

// BenchmarkAblationStorePrefetch compares runs with and without RFO
// prefetching of buffered stores' lines (the MLP knob).
func BenchmarkAblationStorePrefetch(b *testing.B) {
	var off, on Result
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		off = MustRun("rtree", SchemeBBB, o)
		o.StorePrefetch = true
		on = MustRun("rtree", SchemeBBB, o)
	}
	b.ReportMetric(float64(off.Cycles), "cycles_noprefetch")
	b.ReportMetric(float64(on.Cycles), "cycles_prefetch")
	b.ReportMetric(float64(off.Cycles)/float64(on.Cycles), "speedup_x")
}

// BenchmarkAblationRelaxedConsistency compares in-order vs relaxed L1D
// commit under BBB (§III-C): durability is identical (tested elsewhere);
// this reports the performance effect.
func BenchmarkAblationRelaxedConsistency(b *testing.B) {
	var tso, relaxed Result
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		tso = MustRun("rtree", SchemeBBB, o)
		o.RelaxedConsistency = true
		relaxed = MustRun("rtree", SchemeBBB, o)
	}
	b.ReportMetric(float64(tso.Cycles), "cycles_tso")
	b.ReportMetric(float64(relaxed.Cycles), "cycles_relaxed")
}

// BenchmarkAblationDrainThreshold sweeps the §III-F drain threshold.
func BenchmarkAblationDrainThreshold(b *testing.B) {
	thresholds := []float64{0.125, 0.25, 0.5, 0.75, 0.9}
	var res []Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = RunGrid(drainThresholdCells("hashmap", benchOptions(), thresholds), 1); err != nil {
			b.Fatal(err)
		}
	}
	for j, r := range res {
		b.ReportMetric(float64(r.NVMMWrites), "writes_t"+strconv.Itoa(int(thresholds[j]*100)))
	}
}

// BenchmarkSchemesPerWorkload runs each Table IV workload under each scheme
// — the raw-material sweep behind Figure 7, exposed per combination.
func BenchmarkSchemesPerWorkload(b *testing.B) {
	for _, w := range workload.Registry() {
		for _, s := range []Scheme{SchemeEADR, SchemeBBB, SchemeBBBProc, SchemePMEM} {
			w, s := w, s
			b.Run(w.Name()+"/"+s.String(), func(b *testing.B) {
				var r Result
				for i := 0; i < b.N; i++ {
					r = MustRun(w.Name(), s, benchOptions())
				}
				b.ReportMetric(float64(r.Cycles), "cycles")
				b.ReportMetric(float64(r.NVMMWrites), "nvmm_writes")
				b.ReportMetric(float64(r.Rejections), "rejections")
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// stores per wall second) and allocation pressure per run — engineering
// metrics, not paper figures. bench-json tracks both across commits, and
// `make bench-profile` profiles this run. Every access goes through the
// program↔core coroutine handoff (docs/ARCHITECTURE.md §13), so this is
// also the handoff's end-to-end cost.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var stores uint64
	for i := 0; i < b.N; i++ {
		r := MustRun("mutateNC", SchemeBBB, benchOptions())
		stores += r.Stores
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(stores)/b.Elapsed().Seconds(), "sim_stores/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/op")
}
