package bbb

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"bbb/internal/energy"
	"bbb/internal/obs"
)

// The frontier campaign is the repo's first ledger-backed resumable sweep:
// bbPB size × drain threshold under BBB on one workload, priced with the
// §IV-C energy model, reduced to a battery-budget frontier — for each
// battery volume, the largest buffer that can safely drain and the best
// performance available within the budget. Every point checkpoints to the
// run ledger as it completes, so a killed campaign resumes without
// re-simulating and finishes with byte-identical results and summary
// digest at any -parallel setting.

// FrontierConfig shapes RunFrontierCampaign.
type FrontierConfig struct {
	// Workload is the benchmark to sweep (default "hashmap").
	Workload string
	// Entries are the bbPB sizes (default 8, 16, 32, 64).
	Entries []int
	// Thresholds are the drain occupancy thresholds (default 0.25, 0.5,
	// 0.75).
	Thresholds []float64
	// BudgetsMM3 are the battery volumes the frontier is evaluated at
	// (default 1, 5, 20, 100 mm^3).
	BudgetsMM3 []float64
	// Tech is the battery technology: "supercap" (default) or "li-thin".
	Tech string
	// Platform prices drains on "mobile" (default) or "server".
	Platform string
	// MaxPoints, when positive, stops after that many fresh points (the
	// deterministic stand-in for a kill; see obs.Campaign).
	MaxPoints int
	// Ledger receives the checkpoint stream. Required.
	Ledger *obs.Ledger
	// Host and Clock stamp ledger lines with provenance; both optional
	// and never part of the deterministic output.
	Host  *obs.HostInfo
	Clock func() int64
	// Progress, when non-nil, receives resume/verification notes. Keep it
	// off stdout: the report itself is the deterministic artifact.
	Progress io.Writer
}

func (fc *FrontierConfig) fill() {
	if fc.Workload == "" {
		fc.Workload = "hashmap"
	}
	if len(fc.Entries) == 0 {
		fc.Entries = []int{8, 16, 32, 64}
	}
	if len(fc.Thresholds) == 0 {
		fc.Thresholds = []float64{0.25, 0.5, 0.75}
	}
	if len(fc.BudgetsMM3) == 0 {
		fc.BudgetsMM3 = []float64{1, 5, 20, 100}
	}
	if fc.Tech == "" {
		fc.Tech = "supercap"
	}
	if fc.Platform == "" {
		fc.Platform = "mobile"
	}
}

func (fc *FrontierConfig) tech() (energy.BatteryTech, error) {
	switch fc.Tech {
	case "supercap":
		return energy.SuperCap(), nil
	case "li-thin":
		return energy.LiThin(), nil
	}
	return energy.BatteryTech{}, fmt.Errorf("unknown battery tech %q (want supercap or li-thin)", fc.Tech)
}

func (fc *FrontierConfig) platform() (energy.Platform, error) {
	switch fc.Platform {
	case "mobile":
		return energy.Mobile(), nil
	case "server":
		return energy.Server(), nil
	}
	return energy.Platform{}, fmt.Errorf("unknown platform %q (want mobile or server)", fc.Platform)
}

// FrontierPoint is one simulated configuration with its energy pricing.
type FrontierPoint struct {
	Entries      int     `json:"entries"`
	Threshold    float64 `json:"threshold"`
	Cycles       uint64  `json:"cycles"`
	NVMMWrites   uint64  `json:"nvmm_writes"`
	Rejections   uint64  `json:"rejections"`
	Drains       uint64  `json:"drains"`
	StallCycles  uint64  `json:"stall_cycles"`
	DrainEnergyJ float64 `json:"drain_energy_j"`
	DrainTimeUS  float64 `json:"drain_time_us"`
}

// FrontierRow is one budget row: the largest buffer that fits and the
// best-performing swept configuration within the budget.
type FrontierRow struct {
	BudgetMM3 float64
	// BudgetEnergyJ is the usable energy at that volume.
	BudgetEnergyJ float64
	// MaxEntries is the largest swept bbPB size that fits (0: none).
	MaxEntries int
	// Best is the fitting point with the fewest cycles (ties: smaller
	// buffer, then lower threshold). Nil when nothing fits.
	Best *FrontierPoint
}

// FrontierResult is a completed (or interrupted) frontier campaign.
type FrontierResult struct {
	Workload   string
	Platform   string
	Tech       string
	RunID      string
	Restored   int
	Fresh      int
	VerifiedIx int
	Complete   bool
	SummarySHA string
	// Points holds every swept configuration in grid order (nil while
	// incomplete).
	Points []FrontierPoint
	Rows   []FrontierRow
}

// frontierSpec is the deterministic run identity: everything that changes
// the simulated results, and nothing that does not (worker count, host).
type frontierSpec struct {
	Workload   string    `json:"workload"`
	Threads    int       `json:"threads"`
	Ops        int       `json:"ops_per_thread"`
	Seed       int64     `json:"seed"`
	NoBarriers bool      `json:"no_barriers,omitempty"`
	L1Size     int       `json:"l1_size,omitempty"`
	L2Size     int       `json:"l2_size,omitempty"`
	Prefetch   bool      `json:"store_prefetch,omitempty"`
	Relaxed    bool      `json:"relaxed,omitempty"`
	BatchWin   uint64    `json:"batch_window,omitempty"`
	Platform   string    `json:"platform"`
	Tech       string    `json:"tech"`
	Entries    []int     `json:"entries"`
	Thresholds []float64 `json:"thresholds"`
}

type frontierCell struct {
	Entries   int     `json:"entries"`
	Threshold float64 `json:"threshold"`
}

// RunFrontierCampaign executes (or resumes) the frontier campaign.
func RunFrontierCampaign(o Options, fc FrontierConfig) (FrontierResult, error) {
	fc.fill()
	var res FrontierResult
	tech, err := fc.tech()
	if err != nil {
		return res, err
	}
	plat, err := fc.platform()
	if err != nil {
		return res, err
	}
	if _, err := Run(fc.Workload, SchemeBBB, Options{Threads: 1, OpsPerThread: 1}); err != nil {
		return res, fmt.Errorf("validating workload: %w", err)
	}
	res.Workload, res.Platform, res.Tech = fc.Workload, plat.Name, tech.Name

	var cells []frontierCell
	for _, e := range fc.Entries {
		for _, th := range fc.Thresholds {
			cells = append(cells, frontierCell{Entries: e, Threshold: th})
		}
	}
	model := energy.DefaultCostModel()
	camp := &obs.Campaign[frontierCell, FrontierPoint]{
		Name: "frontier",
		Spec: frontierSpec{
			Workload: fc.Workload, Threads: o.Threads, Ops: o.OpsPerThread,
			Seed: o.Seed, NoBarriers: o.NoBarriers, L1Size: o.L1Size,
			L2Size: o.L2Size, Prefetch: o.StorePrefetch,
			Relaxed: o.RelaxedConsistency, BatchWin: uint64(o.BatchWindow),
			Platform: fc.Platform, Tech: fc.Tech, Entries: fc.Entries,
			Thresholds: fc.Thresholds,
		},
		Points: cells,
		Key: func(i int, c frontierCell) string {
			return fmt.Sprintf("e%03d-t%.3f", c.Entries, c.Threshold)
		},
		Run: func(i int, c frontierCell) FrontierPoint {
			oc := o
			oc.BBPBEntries = c.Entries
			oc.DrainThreshold = c.Threshold
			r := sweepRun(fc.Workload, SchemeBBB, oc)
			return FrontierPoint{
				Entries:      c.Entries,
				Threshold:    c.Threshold,
				Cycles:       r.Cycles,
				NVMMWrites:   r.NVMMWrites,
				Rejections:   r.Rejections,
				Drains:       r.Drains,
				StallCycles:  r.StallCycles,
				DrainEnergyJ: model.FrontierEnergyFor(plat, c.Entries),
				DrainTimeUS:  model.BBBDrainTimeS(plat, c.Entries) * 1e6,
			}
		},
		Workers:   o.workers(),
		MaxPoints: fc.MaxPoints,
		Ledger:    fc.Ledger,
		Host:      fc.Host,
		Clock:     fc.Clock,
	}
	out, err := camp.Execute()
	if err != nil {
		return res, err
	}
	res.RunID = out.RunID
	res.Restored, res.Fresh = out.Restored, out.Fresh
	res.VerifiedIx = out.VerifiedIndex
	res.Complete = out.Complete
	res.SummarySHA = out.SummarySHA
	if fc.Progress != nil {
		fmt.Fprintf(fc.Progress, "frontier run %s: %d restored, %d fresh", out.RunID, out.Restored, out.Fresh)
		if out.VerifiedIndex >= 0 {
			fmt.Fprintf(fc.Progress, ", overlap point %d re-verified", out.VerifiedIndex)
		}
		if !out.Complete {
			fmt.Fprintf(fc.Progress, " (incomplete: re-run to resume)")
		}
		fmt.Fprintln(fc.Progress)
	}
	if !out.Complete {
		return res, nil
	}
	res.Points = out.Results

	for _, budget := range fc.BudgetsMM3 {
		row := FrontierRow{
			BudgetMM3:     budget,
			BudgetEnergyJ: model.BudgetEnergyJ(tech, budget),
			MaxEntries:    model.MaxEntriesWithinBudget(plat, fc.Entries, tech, budget),
		}
		for i := range res.Points {
			p := &res.Points[i]
			if !model.FitsBudget(plat, p.Entries, tech, budget) {
				continue
			}
			if row.Best == nil || p.Cycles < row.Best.Cycles ||
				(p.Cycles == row.Best.Cycles && (p.Entries < row.Best.Entries ||
					(p.Entries == row.Best.Entries && p.Threshold < row.Best.Threshold))) {
				row.Best = p
			}
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].BudgetMM3 < res.Rows[j].BudgetMM3 })
	return res, nil
}

// Report renders the campaign as the deterministic artifact bbbsim prints:
// the swept grid, the budget frontier, and the summary digest that makes
// two runs comparable with cmp(1).
func (r FrontierResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frontier campaign: workload=%s platform=%q tech=%s run=%s\n",
		r.Workload, r.Platform, r.Tech, r.RunID)
	if !r.Complete {
		fmt.Fprintf(&b, "incomplete: %d points done this session (re-run to resume)\n", r.Fresh+r.Restored)
		return b.String()
	}
	fmt.Fprintf(&b, "%8s %9s %10s %11s %10s %8s %12s %12s\n",
		"entries", "thresh", "cycles", "nvmm_wr", "reject", "drains", "drain_uJ", "drain_us")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %9.3f %10d %11d %10d %8d %12.3f %12.4f\n",
			p.Entries, p.Threshold, p.Cycles, p.NVMMWrites, p.Rejections,
			p.Drains, p.DrainEnergyJ*1e6, p.DrainTimeUS)
	}
	fmt.Fprintf(&b, "battery-budget frontier (%s, %s):\n", r.Tech, r.Platform)
	fmt.Fprintf(&b, "%12s %12s %11s %s\n", "budget_mm3", "budget_uJ", "max_entries", "best config")
	for _, row := range r.Rows {
		best := "none fits"
		if row.Best != nil {
			best = fmt.Sprintf("e=%d t=%.3f cycles=%d", row.Best.Entries, row.Best.Threshold, row.Best.Cycles)
		}
		fmt.Fprintf(&b, "%12.1f %12.3f %11d %s\n", row.BudgetMM3, row.BudgetEnergyJ*1e6, row.MaxEntries, best)
	}
	fmt.Fprintf(&b, "summary sha256 %s\n", r.SummarySHA)
	return b.String()
}
