package workload

import (
	"slices"

	"bbb/internal/engine"
	"bbb/internal/palloc"
	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/sweep"
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
// panics otherwise) and returns visit's results in point order. Instead of
// rebuilding and re-simulating a machine per point (BuildToCrash), it
// builds one machine per worker: worker k of workers owns points k,
// k+workers, … and advances its machine through them in ascending order,
// calling visit with the machine stopped at each. visit must leave the
// machine as it found it — take a live snapshot (System.CrashImage) rather
// than crashing it — because the walk continues from that state; the
// results are then the same as BuildToCrash's at every point, at any
// worker count.
//
// Setup and Programs mutate workload-instance state, so with more than one
// worker each resolves a private instance by name, and visit receives the
// instance whose machine it is looking at. A workload outside the registry
// cannot be re-resolved and walks serially.
func WalkCrashPoints[T any](w Workload, s persistency.Scheme, cfg system.Config, p Params, cycles []engine.Cycle, workers int,
	visit func(w Workload, sys *system.System, at engine.Cycle, finished bool) T) []T {
	if !slices.IsSorted(cycles) {
		panic("workload: crash cycles must be non-decreasing")
	}
	n := len(cycles)
	workers = min(max(workers, 1), n)
	if workers > 1 {
		if _, err := ByName(w.Name()); err != nil {
			workers = 1
		}
	}
	out := make([]T, n)
	sweep.Run(workers, workers, func(k int) {
		wk := w
		if workers > 1 {
			wk, _ = ByName(w.Name())
		}
		sys, progs := Build(wk, s, cfg, p)
		defer sys.Shutdown()
		sys.Start(progs)
		for i := k; i < n; i += workers {
			out[i] = visit(wk, sys, cycles[i], sys.Advance(cycles[i]))
		}
	})
	return out
}

// RunToCrash executes the workload, crashes it at crashCycle (or lets it
// finish if it completes first), performs the scheme's flush-on-fail, and
// returns the machine for image inspection plus the drain report.
func RunToCrash(w Workload, s persistency.Scheme, cfg system.Config, p Params, crashCycle engine.Cycle) (*system.System, persistency.DrainReport, bool) {
	sys, finished := BuildToCrash(w, s, cfg, p, crashCycle)
	rep := sys.Crash()
	return sys, rep, finished
}
