package bbb

import (
	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/workload"
)

// runCells is RunGrid for the figure and table drivers, on o's
// Parallelism: every cell runs to completion untraced and unaudited,
// whatever its Options' per-run fields say, and a failing cell panics, as
// MustRun does (the drivers run vetted names).
func runCells(o Options, cells []Cell) []Result {
	for i := range cells {
		co := &cells[i].Options
		co.Trace, co.Check, co.CrashAt = nil, false, 0
	}
	res, err := RunGrid(cells, o.workers())
	if err != nil {
		panic(err)
	}
	return res
}

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
// and BBB-1024, a grid of 3 x |workloads| cells in workload-major order.
// Rows come out in the paper's order.
func RunFig7(o Options) Fig7Result {
	reg := workload.Registry()
	o32 := o
	o32.BBPBEntries = 32
	o1024 := o
	o1024.BBPBEntries = 1024
	var cells []Cell
	for _, w := range reg {
		cells = append(cells, Cell{w.Name(), SchemeEADR, o}, Cell{w.Name(), SchemeBBB, o32}, Cell{w.Name(), SchemeBBB, o1024})
	}
	res := runCells(o, cells)

	var out Fig7Result
	var execs, writes32, writes1024 []float64
	for wi, w := range reg {
		eadr, b32, b1024 := res[3*wi], res[3*wi+1], res[3*wi+2]

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
	var cells []Cell
	for _, w := range reg {
		cells = append(cells, Cell{w.Name(), SchemeEADR, o}, Cell{w.Name(), SchemeBBBProc, o})
	}
	res := runCells(o, cells)
	var ratios []float64
	for wi := range reg {
		eadr, proc := res[2*wi], res[2*wi+1]
		ratios = append(ratios, stats.Ratio(float64(proc.NVMMWrites), float64(eadr.NVMMWrites)))
	}
	return stats.Geomean(ratios)
}

// Fig8Point is one bbPB size in the Figure 8 sensitivity sweep: workload
// geomeans normalized to the sweep's first size (Fig8Sizes starts at the
// paper's 1-entry bbPB).
type Fig8Point struct {
	Entries    int
	Rejections float64 // (a) persist rejections due to full bbPB
	ExecTime   float64 // (b) execution time
	Drains     float64 // (c) bbPB drains to NVMM
}

// Fig8Sizes is the paper's sweep.
var Fig8Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// RunFig8 regenerates Figure 8: geomean impact of bbPB size on rejections,
// execution time, and drains, normalized to sizes[0]. Empty sizes runs
// Fig8Sizes.
func RunFig8(o Options, sizes []int) []Fig8Point {
	if len(sizes) == 0 {
		sizes = Fig8Sizes
	}
	reg := workload.Registry()
	var cells []Cell
	for _, w := range reg {
		for _, n := range sizes {
			on := o
			on.BBPBEntries = n
			cells = append(cells, Cell{w.Name(), SchemeBBB, on})
		}
	}
	res := runCells(o, cells)
	type raw struct{ rej, exec, drains []float64 }
	perSize := make([]raw, len(sizes))
	for wi := range reg {
		for i := range sizes {
			r := res[wi*len(sizes)+i]
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
	var cells []Cell
	for _, w := range reg {
		cells = append(cells, Cell{w.Name(), SchemeEADR, o})
	}
	var rows []PStoreRow
	for i, r := range runCells(o, cells) {
		w := reg[i]
		rows = append(rows, PStoreRow{
			Workload:    w.Name(),
			Description: w.Description(),
			MeasuredPct: 100 * float64(r.PersistingStores) / float64(r.Stores),
			PaperPct:    w.PaperPStores(),
		})
	}
	return rows
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
	var cells []Cell
	for _, s := range persistency.Schemes() {
		cells = append(cells, Cell{workloadName, s, o})
	}
	var rows []SchemeRow
	for i, r := range runCells(o, cells) {
		rows = append(rows, SchemeRow{
			Workload:   workloadName,
			Scheme:     cells[i].Scheme,
			Cycles:     r.Cycles,
			NVMMWrites: r.NVMMWrites,
			Rejections: r.Rejections,
			WearMax:    r.Wear.MaxWrites,
			WearMean:   r.Wear.MeanWrites,
		})
	}
	return rows, nil
}
