package bbb

import (
	"fmt"

	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/sweep"
	"bbb/internal/workload"
)

// persistencySchemes returns every implemented scheme, Table I order first.
func persistencySchemes() []Scheme { return persistency.Schemes() }

// Fig7Row is one workload's bars in Figures 7(a) and 7(b): execution time
// and NVMM writes for BBB-32 and BBB-1024, normalized to eADR (= 1.0).
type Fig7Row struct {
	Workload string
	// ExecTime[scheme] and Writes[scheme] are normalized to eADR.
	ExecBBB32     float64
	ExecBBB1024   float64
	WritesBBB32   float64
	WritesBBB1024 float64
	// Raw eADR values, for context.
	EADRCycles uint64
	EADRWrites uint64
}

// Fig7Result carries the whole figure plus its summary statistics.
type Fig7Result struct {
	Rows []Fig7Row
	// The paper's headline numbers: ~1% mean slowdown / 2.8% worst for
	// BBB-32; +4.9% mean writes.
	MeanExecOverheadBBB32    float64 // geomean(exec)-1
	WorstExecOverheadBBB32   float64
	MeanWriteOverheadBBB32   float64
	MeanWriteOverheadBBB1024 float64
}

// RunFig7 regenerates Figure 7: every Table IV workload under eADR, BBB-32
// and BBB-1024. The 3 x |workloads| independent simulations fan out over
// Options.Parallelism workers; rows are assembled in the paper's order.
func RunFig7(o Options) Fig7Result {
	reg := workload.Registry()
	o32 := o
	o32.BBPBEntries = 32
	o1024 := o
	o1024.BBPBEntries = 1024
	type trio struct{ eadr, b32, b1024 Result }
	res := make([]trio, len(reg))
	sweep.Run(o.workers(), 3*len(reg), func(i int) {
		name := reg[i/3].Name()
		switch i % 3 {
		case 0:
			res[i/3].eadr = sweepRun(name, SchemeEADR, o)
		case 1:
			res[i/3].b32 = sweepRun(name, SchemeBBB, o32)
		case 2:
			res[i/3].b1024 = sweepRun(name, SchemeBBB, o1024)
		}
	})

	var out Fig7Result
	var execs, writes32, writes1024 []float64
	for wi, w := range reg {
		eadr, b32, b1024 := res[wi].eadr, res[wi].b32, res[wi].b1024

		row := Fig7Row{
			Workload:      w.Name(),
			ExecBBB32:     stats.Ratio(float64(b32.Cycles), float64(eadr.Cycles)),
			ExecBBB1024:   stats.Ratio(float64(b1024.Cycles), float64(eadr.Cycles)),
			WritesBBB32:   stats.Ratio(float64(b32.NVMMWrites), float64(eadr.NVMMWrites)),
			WritesBBB1024: stats.Ratio(float64(b1024.NVMMWrites), float64(eadr.NVMMWrites)),
			EADRCycles:    eadr.Cycles,
			EADRWrites:    eadr.NVMMWrites,
		}
		out.Rows = append(out.Rows, row)
		execs = append(execs, row.ExecBBB32)
		writes32 = append(writes32, row.WritesBBB32)
		writes1024 = append(writes1024, row.WritesBBB1024)
	}
	out.MeanExecOverheadBBB32 = stats.Geomean(execs) - 1
	out.WorstExecOverheadBBB32 = stats.Max(execs) - 1
	out.MeanWriteOverheadBBB32 = geomeanOrZero(writes32) - 1
	out.MeanWriteOverheadBBB1024 = geomeanOrZero(writes1024) - 1
	return out
}

// geomeanOrZero is stats.Geomean for write ratios, which can be 0: at tiny
// scales (2 threads x 60 ops) a BBB-1024 run may write no NVMM line at all.
// The geometric mean of a set that contains 0 is 0, so the figure reports
// it (an overhead of -1) instead of panicking.
func geomeanOrZero(xs []float64) float64 {
	for _, x := range xs {
		if x == 0 {
			return 0
		}
	}
	return stats.Geomean(xs)
}

// ProcSideWriteRatio reproduces §V-C's processor-side comparison: the mean
// NVMM-write ratio of the processor-side organization to eADR (the paper
// reports ~2.8x).
func ProcSideWriteRatio(o Options) float64 {
	reg := workload.Registry()
	type pair struct{ eadr, proc Result }
	res := make([]pair, len(reg))
	sweep.Run(o.workers(), 2*len(reg), func(i int) {
		name := reg[i/2].Name()
		if i%2 == 0 {
			res[i/2].eadr = sweepRun(name, SchemeEADR, o)
		} else {
			res[i/2].proc = sweepRun(name, SchemeBBBProc, o)
		}
	})
	var ratios []float64
	for wi := range reg {
		ratios = append(ratios, stats.Ratio(float64(res[wi].proc.NVMMWrites), float64(res[wi].eadr.NVMMWrites)))
	}
	return stats.Geomean(ratios)
}

// Fig8Point is one bbPB size in the Figure 8 sensitivity sweep: workload
// geomeans normalized to the 1-entry configuration.
type Fig8Point struct {
	Entries    int
	Rejections float64 // (a) persist rejections due to full bbPB
	ExecTime   float64 // (b) execution time
	Drains     float64 // (c) bbPB drains to NVMM
}

// Fig8Sizes is the paper's sweep.
var Fig8Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// RunFig8 regenerates Figure 8: geomean impact of bbPB size on rejections,
// execution time, and drains, normalized to a 1-entry bbPB.
func RunFig8(o Options, sizes []int) []Fig8Point {
	if len(sizes) == 0 {
		sizes = Fig8Sizes
	}
	reg := workload.Registry()
	// One independent simulation per (workload, size) cell, fanned out over
	// Options.Parallelism workers into index-addressed slots.
	cells := sweep.Map(o.workers(), len(reg)*len(sizes), func(c int) Result {
		on := o
		on.BBPBEntries = sizes[c%len(sizes)]
		return sweepRun(reg[c/len(sizes)].Name(), SchemeBBB, on)
	})
	type raw struct{ rej, exec, drains []float64 }
	perSize := make([]raw, len(sizes))
	for wi := range reg {
		for i := range sizes {
			r := cells[wi*len(sizes)+i]
			// Geomean needs positive values; +1 shifts zero counts.
			perSize[i].rej = append(perSize[i].rej, float64(r.Rejections)+1)
			perSize[i].exec = append(perSize[i].exec, float64(r.Cycles))
			perSize[i].drains = append(perSize[i].drains, float64(r.Drains)+1)
		}
	}
	base := perSize[0]
	baseRej, baseExec, baseDrains := stats.Geomean(base.rej), stats.Geomean(base.exec), stats.Geomean(base.drains)
	var out []Fig8Point
	for i, n := range sizes {
		out = append(out, Fig8Point{
			Entries:    n,
			Rejections: stats.Geomean(perSize[i].rej) / baseRej,
			ExecTime:   stats.Geomean(perSize[i].exec) / baseExec,
			Drains:     stats.Geomean(perSize[i].drains) / baseDrains,
		})
	}
	return out
}

// PStoreRow is one Table IV row: measured persistent-store fraction.
type PStoreRow struct {
	Workload    string
	Description string
	MeasuredPct float64
	PaperPct    float64
}

// RunTable4 measures the store mix of every workload (Table IV's %P-stores
// column) on the eADR machine, where no persistency mechanism perturbs it.
func RunTable4(o Options) []PStoreRow {
	reg := workload.Registry()
	return sweep.Map(o.workers(), len(reg), func(i int) PStoreRow {
		w := reg[i]
		r := sweepRun(w.Name(), SchemeEADR, o)
		return PStoreRow{
			Workload:    w.Name(),
			Description: w.Description(),
			MeasuredPct: 100 * float64(r.PersistingStores) / float64(r.Stores),
			PaperPct:    w.PaperPStores(),
		}
	})
}

// SeedSweep is the multi-seed robustness summary for one (workload,
// scheme) normalized metric: the paper reports single runs; a
// production-quality harness should show how stable those numbers are
// across workload randomness.
type SeedSweep struct {
	Workload string
	// ExecRatio and WriteRatio are BBB-32 normalized to eADR, summarized
	// over seeds.
	ExecMean, ExecStdDev   float64
	WriteMean, WriteStdDev float64
	Seeds                  int
}

// RunSeedSweep reruns the Fig. 7 comparison for one workload across seeds.
func RunSeedSweep(workloadName string, o Options, seeds []int64) (SeedSweep, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	if _, err := workload.ByName(workloadName); err != nil {
		return SeedSweep{}, err
	}
	// Two independent simulations per seed (eADR, then BBB), fanned out;
	// the distributions are accumulated serially in seed order.
	res := sweep.Map(o.workers(), 2*len(seeds), func(i int) Result {
		os := o
		os.Seed = seeds[i/2]
		if i%2 == 0 {
			return sweepRun(workloadName, SchemeEADR, os)
		}
		return sweepRun(workloadName, SchemeBBB, os)
	})
	var exec, writes stats.Distribution
	for si := range seeds {
		eadr, bbb := res[2*si], res[2*si+1]
		exec.Observe(stats.Ratio(float64(bbb.Cycles), float64(eadr.Cycles)))
		writes.Observe(stats.Ratio(float64(bbb.NVMMWrites), float64(eadr.NVMMWrites)))
	}
	return SeedSweep{
		Workload:    workloadName,
		ExecMean:    exec.Mean(),
		ExecStdDev:  exec.StdDev(),
		WriteMean:   writes.Mean(),
		WriteStdDev: writes.StdDev(),
		Seeds:       len(seeds),
	}, nil
}

// SchemeRow is one (workload, scheme) cell of the extended comparison that
// also covers the BEP and NVCache designs the paper discusses
// qualitatively.
type SchemeRow struct {
	Workload   string
	Scheme     Scheme
	Cycles     uint64
	NVMMWrites uint64
	Rejections uint64
	// WearMax / WearMean describe the per-line NVMM write distribution
	// (endurance: the hottest line wears out first).
	WearMax  uint64
	WearMean float64
}

// RunSchemeComparison sweeps one workload over every scheme with wear
// tracking on — the endurance ablation behind the paper's §V-C argument
// that memory-side coalescing and skipped writebacks protect NVMM lifetime.
func RunSchemeComparison(workloadName string, o Options) ([]SchemeRow, error) {
	o.TrackWear = true
	if _, err := workload.ByName(workloadName); err != nil {
		return nil, err
	}
	schemes := persistencySchemes()
	rows := sweep.Map(o.workers(), len(schemes), func(i int) SchemeRow {
		s := schemes[i]
		r := sweepRun(workloadName, s, o)
		return SchemeRow{
			Workload:   workloadName,
			Scheme:     s,
			Cycles:     r.Cycles,
			NVMMWrites: r.NVMMWrites,
			Rejections: r.Rejections,
			WearMax:    r.Wear.MaxWrites,
			WearMean:   r.Wear.MeanWrites,
		}
	})
	return rows, nil
}

// WPQDepthPoint is one cell of the write-pending-queue depth ablation: the
// WPQ is the ADR persistence domain below the bbPBs, so its depth bounds
// how much persist traffic the controller can absorb before backpressure
// reaches the buffers and then the cores.
type WPQDepthPoint struct {
	Entries    int
	Cycles     uint64
	NVMMWrites uint64
	FullStalls uint64
}

// RunWPQDepthAblation sweeps the NVMM WPQ depth on one workload under BBB.
func RunWPQDepthAblation(workloadName string, o Options, depths []int) ([]WPQDepthPoint, error) {
	if len(depths) == 0 {
		depths = []int{4, 8, 16, 32, 64}
	}
	if _, err := workload.ByName(workloadName); err != nil {
		return nil, err
	}
	// Each point resolves its own workload instance: Setup/Programs mutate
	// instance state, so concurrent points must never share one.
	out := sweep.Map(o.workers(), len(depths), func(i int) WPQDepthPoint {
		w, err := workload.ByName(workloadName)
		if err != nil {
			panic(err) // validated above
		}
		cfg := o.sysConfig(SchemeBBB)
		cfg.NVMM.WPQEntries = depths[i]
		r := workload.Run(w, SchemeBBB, cfg, o.params())
		return WPQDepthPoint{
			Entries:    depths[i],
			Cycles:     r.Cycles,
			NVMMWrites: r.NVMMWrites,
			FullStalls: r.Counters.Get("nvmm.wpq_full_stalls"),
		}
	})
	return out, nil
}

// DrainThresholdPoint is one cell of the drain-threshold ablation (§III-F:
// "we found 75% threshold to work well for 32-entry bbPB").
type DrainThresholdPoint struct {
	Threshold  float64
	Cycles     uint64
	NVMMWrites uint64
	Rejections uint64
}

// RunDrainThresholdAblation sweeps the bbPB drain threshold on one
// workload, holding everything else at defaults.
func RunDrainThresholdAblation(workloadName string, o Options, thresholds []float64) ([]DrainThresholdPoint, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.125, 0.25, 0.5, 0.75, 0.9}
	}
	if _, err := workload.ByName(workloadName); err != nil {
		return nil, fmt.Errorf("threshold %.2f: %w", thresholds[0], err)
	}
	out := sweep.Map(o.workers(), len(thresholds), func(i int) DrainThresholdPoint {
		ot := o
		ot.DrainThreshold = thresholds[i]
		r := sweepRun(workloadName, SchemeBBB, ot)
		return DrainThresholdPoint{
			Threshold: thresholds[i], Cycles: r.Cycles, NVMMWrites: r.NVMMWrites, Rejections: r.Rejections,
		}
	})
	return out, nil
}
