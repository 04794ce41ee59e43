package workload

import (
	"slices"

	"bbb/internal/engine"
	"bbb/internal/palloc"
	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/system"
)

// Build constructs a fresh machine for scheme s, sets the workload up in
// its persistent image, and returns the machine plus the per-core programs.
// Each call gets an independent arena, so runs never share state.
func Build(w Workload, s persistency.Scheme, cfg system.Config, p Params) (*system.System, []system.Program) {
	cfg.Scheme = s
	cfg.Cores = p.Threads
	cfg.Hierarchy.Cores = p.Threads
	sys := system.New(cfg)
	arena := palloc.FromLayout(cfg.Layout)
	w.Setup(sys.Mem, arena, p)
	return sys, w.Programs(p)
}

// ServiceMetrics is implemented by workloads that collect application-level
// measurements of their own (per-client request latencies, batch sizes);
// Run folds them into Result.Metrics after the machine stops.
type ServiceMetrics interface {
	// MergeServiceMetrics merges the workload's histograms into m under
	// their Glossary names.
	MergeServiceMetrics(m *stats.Metrics)
}

// Run executes the workload to completion under scheme s and returns the
// result (the Fig. 7 measurement path).
func Run(w Workload, s persistency.Scheme, cfg system.Config, p Params) system.Result {
	sys, progs := Build(w, s, cfg, p)
	defer sys.Shutdown()
	res := sys.Run(progs)
	FoldServiceMetrics(w, &res)
	return res
}

// FoldServiceMetrics merges w's application-level measurements into
// res.Metrics when w implements ServiceMetrics, creating the registry if
// the run had tracing off. Harnesses that Build and drive the machine
// themselves (tracing, checking) call it to match Run's behaviour.
func FoldServiceMetrics(w Workload, res *system.Result) {
	if sm, ok := w.(ServiceMetrics); ok {
		if res.Metrics == nil {
			res.Metrics = stats.NewMetrics()
		}
		sm.MergeServiceMetrics(res.Metrics)
	}
}

// BuildToCrash executes the workload until crashCycle (or completion,
// whichever comes first) and returns the stopped-but-not-yet-crashed
// machine, with caches, persist buffers and WPQ still holding their
// in-flight state. The crash-image model checker captures the pending
// persistence-domain writes from this state before performing the
// flush-on-fail itself; plain crash injection calls System.Crash directly.
func BuildToCrash(w Workload, s persistency.Scheme, cfg system.Config, p Params, crashCycle engine.Cycle) (*system.System, bool) {
	sys, progs := Build(w, s, cfg, p)
	finished := sys.RunUntil(crashCycle, progs)
	return sys, finished
}

// EvenCycles lists the n crash cycles first, first+step, …: the evenly
// spaced campaign sweep WalkCrashPoints walks.
func EvenCycles(first, step engine.Cycle, n int) []engine.Cycle {
	out := make([]engine.Cycle, n)
	for i := range out {
		out[i] = first + engine.Cycle(i)*step
	}
	return out
}

// WalkCrashPoints visits the crash points cycles (non-decreasing; it
// panics otherwise) in order. Instead of rebuilding and re-simulating a
// machine per point (BuildToCrash), it builds one machine and advances it
// through them, calling visit with point i's index and the machine stopped
// at its cycle. visit must leave the machine as it found it — take a live
// snapshot (System.CrashImage) rather than crashing it — because the walk
// continues from that state; the machine visit sees at each point is then
// the one BuildToCrash would return. Callers that check the points
// concurrently hand the snapshots on from visit (crashmc.Config.Run).
func WalkCrashPoints(w Workload, s persistency.Scheme, cfg system.Config, p Params, cycles []engine.Cycle,
	visit func(i int, sys *system.System, at engine.Cycle, finished bool)) {
	if !slices.IsSorted(cycles) {
		panic("workload: crash cycles must be non-decreasing")
	}
	sys, progs := Build(w, s, cfg, p)
	defer sys.Shutdown()
	sys.Start(progs)
	for i, at := range cycles {
		visit(i, sys, at, sys.Advance(at))
	}
}

// RunToCrash executes the workload, crashes it at crashCycle (or lets it
// finish if it completes first), performs the scheme's flush-on-fail, and
// returns the machine for image inspection plus the drain report.
func RunToCrash(w Workload, s persistency.Scheme, cfg system.Config, p Params, crashCycle engine.Cycle) (*system.System, persistency.DrainReport, bool) {
	sys, finished := BuildToCrash(w, s, cfg, p, crashCycle)
	rep := sys.Crash()
	return sys, rep, finished
}
