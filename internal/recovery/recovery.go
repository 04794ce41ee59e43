// Package recovery runs crash-injection campaigns: a workload is executed
// repeatedly, crashed at a sweep of cycles, flush-on-fail is applied for the
// scheme under test, and the workload's recovery checker walks the durable
// image exactly as post-crash recovery code would.
//
// This mechanizes the paper's §II-A argument: the Figure 2 code (no
// barriers) is unrecoverable under the PMEM baseline at some crash points,
// the Figure 3 code (barriers) is always recoverable, and under BBB the
// barrier-free code is always recoverable — persist order and program order
// coincide because the bbPB is the point of persistency.
package recovery

import (
	"fmt"

	"bbb/internal/engine"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// CampaignConfig describes one crash-injection sweep.
type CampaignConfig struct {
	Workload workload.Workload
	Scheme   persistency.Scheme
	System   system.Config
	Params   workload.Params
	// Crash points: FirstCrash, then every Step cycles, Points times.
	FirstCrash engine.Cycle
	Step       engine.Cycle
	Points     int
	// Parallel bounds how many machines walk the crash points at once,
	// each with its own workload instance (workload.WalkCrashPoints). <= 1
	// is serial; the report is identical either way. Workloads not in the
	// registry (no ByName lookup) always run serially, since workers would
	// otherwise share one instance.
	Parallel int
}

// Outcome is one crash point's result.
type Outcome struct {
	CrashCycle engine.Cycle
	Finished   bool // the workload completed before the crash point
	Drain      persistency.DrainReport
	Err        error // nil if the image was consistent
}

// Report aggregates a campaign.
type Report struct {
	Scheme       persistency.Scheme
	Workload     string
	Barriers     bool
	Outcomes     []Outcome
	Inconsistent int
	// DrainedLinesMax is the largest flush-on-fail payload observed, the
	// quantity the battery must be provisioned for.
	DrainedLinesMax int
}

// Run executes the campaign. Each worker walks one machine through its
// share of the crash points (workload.WalkCrashPoints) and checks the
// image a crash would leave at each (System.CrashImage) without crashing
// the machine, so every point's outcome equals an independent run from a
// fresh image and failures cannot mask each other.
func (c CampaignConfig) Run() Report {
	if c.Points <= 0 {
		panic("recovery: Points must be positive")
	}
	rep := Report{
		Scheme:   c.Scheme,
		Workload: c.Workload.Name(),
		Barriers: !c.Params.NoBarriers,
	}
	rep.Outcomes = workload.WalkCrashPoints(c.Workload, c.Scheme, c.System, c.Params, workload.EvenCycles(c.FirstCrash, c.Step, c.Points), c.Parallel,
		func(w workload.Workload, sys *system.System, at engine.Cycle, finished bool) Outcome {
			img, drain := sys.CrashImage()
			return Outcome{CrashCycle: at, Finished: finished, Drain: drain, Err: w.Check(img)}
		})
	for _, out := range rep.Outcomes {
		if out.Err != nil {
			rep.Inconsistent++
		}
		if n := out.Drain.Lines(); n > rep.DrainedLinesMax {
			rep.DrainedLinesMax = n
		}
	}
	return rep
}

// GuaranteesConsistency reports whether a scheme promises a consistent
// durable image for the given program variant: the battery-complete
// schemes (eADR, BBB, BBBProc, NVCache — the store buffer already sits
// inside the persistence domain) need no barriers at all, while PMEM and
// BEP only guarantee recovery when the program's barriers are present.
// An inconsistent campaign under a guaranteeing combination is a
// simulator bug, not an expected Figure 2 outcome.
func GuaranteesConsistency(s persistency.Scheme, barriers bool) bool {
	return persistency.TraitsOf(s).BatteryBackedSB || barriers
}

// String summarizes the report for CLIs.
func (r Report) String() string {
	mode := "with barriers"
	if !r.Barriers {
		mode = "NO barriers"
	}
	return fmt.Sprintf("%-10s %-9s %-13s crash points: %3d  inconsistent: %3d  max drained lines: %d",
		r.Workload, r.Scheme, mode, len(r.Outcomes), r.Inconsistent, r.DrainedLinesMax)
}

// FirstFailure returns the first inconsistent outcome, if any.
func (r Report) FirstFailure() (Outcome, bool) {
	for _, o := range r.Outcomes {
		if o.Err != nil {
			return o, true
		}
	}
	return Outcome{}, false
}
