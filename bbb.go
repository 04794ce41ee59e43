// Package bbb is a full-system reproduction of "BBB: Simplifying Persistent
// Programming using Battery-Backed Buffers" (Alshboul et al., HPCA 2021).
//
// It bundles an event-driven multicore simulator — out-of-order-committing
// cores with store buffers, private L1Ds, a shared inclusive L2 kept
// coherent by a directory MESI protocol, DRAM and NVMM controllers with an
// ADR write-pending queue — together with four persistency schemes layered
// on it:
//
//   - PMEM: the strict-persistency baseline needing explicit clwb+sfence,
//   - eADR: battery-backed caches (flush-on-fail over the whole hierarchy),
//   - BBB: the paper's battery-backed persist buffers beside each L1D,
//   - BBBProc: the processor-side bbPB organization used as a comparison.
//
// The package exposes the Table IV workloads (rtree, ctree, hashmap, array
// mutate/swap), crash-image model checking with per-structure recovery
// checkers (ModelCheck; bounded to one image per crash point it is the
// flush-on-fail crash-injection campaign), the §IV-C energy/battery cost
// model, and experiment drivers that regenerate every table and figure of
// the paper's evaluation (see EXPERIMENTS.md).
//
// Quick start:
//
//	res := bbb.Run("hashmap", bbb.SchemeBBB, bbb.Options{})
//	fmt.Println(res.Cycles, res.NVMMWrites)
package bbb

import (
	"fmt"
	"io"

	"bbb/internal/crashmc"
	"bbb/internal/engine"
	"bbb/internal/invariant"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/trace"
	"bbb/internal/workload"

	// Registers the pds crash workloads and the KV service tier with the
	// workload registry, so every driver resolves them by name.
	_ "bbb/internal/kvservice"
)

// Scheme selects a persistency scheme.
type Scheme = persistency.Scheme

// Cycle is a point in simulated time, in core clock cycles. Cycle-typed
// API parameters (crash points, run limits) want explicit conversions at
// the boundary — cmd/bbbvet's cyclelint enforces that cycle counts never
// mix implicitly with raw integers.
type Cycle = engine.Cycle

// The Table I schemes plus the two extension designs.
const (
	SchemePMEM    = persistency.PMEM
	SchemeEADR    = persistency.EADR
	SchemeBBB     = persistency.BBB
	SchemeBBBProc = persistency.BBBProc
	SchemeBEP     = persistency.BEP
	SchemeNVCache = persistency.NVCache
)

// ParseScheme converts a name ("pmem", "eadr", "bbb", "bbb-proc").
func ParseScheme(name string) (Scheme, error) { return persistency.ParseScheme(name) }

// Result is re-exported from the system package.
type Result = system.Result

// Options tune a run; the zero value reproduces the paper's Table III
// machine at a simulation-friendly workload scale.
type Options struct {
	// Threads is the number of cores/threads (default 8, as the paper);
	// the service-tier workloads ("kv", "kv/uniform") run one client per
	// core.
	Threads int
	// OpsPerThread scales the workload (default 1000).
	OpsPerThread int
	// BBPBEntries sizes the persist buffers (default 32).
	BBPBEntries int
	// DrainThreshold is the bbPB drain occupancy threshold (default 0.75).
	DrainThreshold float64
	// NoBarriers omits PersistBarrier calls (the Figure 2 variant).
	NoBarriers bool
	// Seed fixes the workload RNG (default 1).
	Seed int64
	// L1Size/L2Size override the Table III cache sizes when nonzero, to
	// scale cache pressure with scaled-down workloads.
	L1Size, L2Size int
	// TrackWear enables per-line NVMM write-distribution accounting
	// (Result.Wear), for endurance analysis beyond Fig. 7b's totals.
	TrackWear bool
	// TraceCapacity, when positive, retains the last N microarchitectural
	// events (persist commits, bbPB traffic, coherence actions, WPQ
	// activity) for inspection via Machine.DumpTrace, or for Run to write
	// to Trace.
	TraceCapacity int
	// Trace, when non-nil, receives Run's microarchitectural trace. With
	// TraceCapacity > 0 the retained tail is written as text after the
	// run; otherwise every event streams as a JSON line while the run
	// executes (cmd/bbbtrace filters, summarizes and exports the stream),
	// and nothing is held in memory. Either way the result carries the
	// histogram/gauge metrics and durability provenance (Result.Metrics,
	// Result.DurabilitySummary). Read by Run only; the experiment drivers
	// ignore it.
	Trace io.Writer
	// Check arms the runtime invariant auditor for Run: every 1000 cycles
	// the machine's coherence and persist-buffer invariants are verified
	// between engine events (see internal/invariant), and again once a
	// completed run stops. The first violation is Run's error, alongside
	// the (tainted) result. Read by Run only; the experiment drivers
	// ignore it.
	Check bool
	// CrashAt, when nonzero, makes Run crash the machine at that cycle and
	// perform the scheme's flush-on-fail, returning the post-crash result
	// (System.ResultAfterCrash). With Trace streaming, the crash-drain
	// events show which visible stores only became durable because of the
	// battery and, for volatile designs, which never did. Read by Run
	// only; the experiment drivers ignore it.
	CrashAt Cycle
	// StorePrefetch enables request-for-ownership prefetching of buffered
	// stores' lines, recovering some of the memory-level parallelism an
	// out-of-order core would have (the in-order store-buffer drain is the
	// main simplification vs the paper's 8-wide OoO cores).
	StorePrefetch bool
	// RelaxedConsistency lets buffered stores commit to the L1D out of
	// program order (same-address order always kept) — the §III-C relaxed
	// memory-consistency case, where program-order persistency rests on
	// the battery-backed store buffer alone.
	RelaxedConsistency bool
	// BatchWindow is the service tier's request-batching window in cycles
	// (how long a client holds a batch open before the durable commit).
	// Zero uses the workload default.
	BatchWindow Cycle
	// SLOTarget is the service tier's latency objective in cycles; the
	// windowed latency series counts requests over it per time window
	// (kv.lat.win and the bbbkv -timeline table). Zero uses the workload
	// default (20000 cycles, between the schemes' p50 and p95).
	SLOTarget uint64
	// Parallelism bounds how much of an experiment runs concurrently: the
	// independent simulations of the drivers (RunFig7, RunFig8, RunTable4,
	// the ablations and seed sweeps), each on its own engine and machine,
	// or a crash campaign's crash-point checks (ModelCheck simulates one
	// machine and checks the points it walks on a pool of Parallelism
	// checkers, itself included). Results are joined in serial index
	// order, so output is identical for any value — only wall-clock
	// changes. 0 or 1 is serial; the CLIs default their -parallel flag to
	// the host's scheduler width.
	Parallelism int
}

// workers resolves Parallelism for the sweep runner.
func (o Options) workers() int {
	if o.Parallelism > 1 {
		return o.Parallelism
	}
	return 1
}

func (o Options) params() workload.Params {
	p := workload.DefaultParams()
	if o.Threads > 0 {
		p.Threads = o.Threads
	}
	p.OpsPerThread = 1000
	if o.OpsPerThread > 0 {
		p.OpsPerThread = o.OpsPerThread
	}
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	p.NoBarriers = o.NoBarriers
	p.BatchWindow = o.BatchWindow
	p.SLOTarget = o.SLOTarget
	return p
}

func (o Options) sysConfig(s Scheme) system.Config {
	cfg := system.DefaultConfig(s)
	if o.BBPBEntries > 0 {
		cfg.BBPB.Entries = o.BBPBEntries
	}
	if o.DrainThreshold > 0 {
		cfg.BBPB.DrainThreshold = o.DrainThreshold
	}
	if o.L1Size > 0 {
		cfg.Hierarchy.L1Size = o.L1Size
	}
	if o.L2Size > 0 {
		cfg.Hierarchy.L2Size = o.L2Size
	}
	cfg.TrackWear = o.TrackWear
	cfg.TraceCapacity = o.TraceCapacity
	cfg.Core.StorePrefetch = o.StorePrefetch
	cfg.Core.RelaxedSBDrain = o.RelaxedConsistency
	return cfg
}

// Workloads returns the Table IV workload names, in the paper's order.
func Workloads() []string {
	var names []string
	for _, w := range workload.Registry() {
		names = append(names, w.Name())
	}
	return names
}

// checkPeriod is how often, in cycles, Options.Check audits the machine.
const checkPeriod Cycle = 1000

// Run executes one workload under one scheme: to completion, or to a crash
// at Options.CrashAt. Options.Check audits it as it runs and Options.Trace
// records it; the modes compose.
func Run(workloadName string, s Scheme, o Options) (Result, error) {
	wl, err := workload.ByName(workloadName)
	if err != nil {
		return Result{}, err
	}
	cfg := o.sysConfig(s)
	if o.Trace != nil && o.TraceCapacity == 0 {
		cfg.TraceSink = trace.NewJSONL(o.Trace)
	}
	sys, progs := workload.Build(wl, s, cfg, o.params())
	defer sys.Shutdown()
	var violation error
	if o.Check {
		allDone := func() bool {
			for _, c := range sys.Cores {
				if !c.Done() {
					return false
				}
			}
			return true
		}
		invariant.Attach(sys, checkPeriod, allDone, func(err error) { violation = err })
	}
	var res Result
	if o.CrashAt > 0 {
		sys.RunUntil(o.CrashAt, progs)
		sys.Crash()
		res = sys.ResultAfterCrash()
	} else {
		res = sys.Run(progs)
	}
	workload.FoldServiceMetrics(wl, &res)
	if o.Trace != nil {
		if o.TraceCapacity > 0 {
			sys.Trace().Dump(o.Trace)
		} else if err := sys.Trace().Flush(); err != nil {
			return res, fmt.Errorf("bbb: flushing trace stream: %w", err)
		}
	}
	if violation != nil {
		return res, fmt.Errorf("invariant violation mid-run: %w", violation)
	}
	if o.Check && o.CrashAt == 0 {
		if err := invariant.CheckSystem(sys); err != nil {
			return res, fmt.Errorf("invariant violation after run: %w", err)
		}
	}
	return res, nil
}

// MustRun is Run for callers with vetted names (benchmarks, examples).
func MustRun(workloadName string, s Scheme, o Options) Result {
	r, err := Run(workloadName, s, o)
	if err != nil {
		panic(err)
	}
	return r
}

// sweepRun is MustRun for the experiment drivers: every sweep point runs
// to completion untraced and unaudited, whatever o's per-run fields say.
func sweepRun(workloadName string, s Scheme, o Options) Result {
	o.Trace, o.Check, o.CrashAt = nil, false, 0
	return MustRun(workloadName, s, o)
}

// MCBounds prune a model-checking campaign's per-point enumeration; the
// zero value uses the crashmc defaults.
type MCBounds = crashmc.Bounds

// MCReport aggregates a model-checking campaign.
type MCReport = crashmc.Report

// MCWitness is a minimized, replayable crash-consistency violation.
type MCWitness = crashmc.Witness

// ModelCheck sweeps crash points over a workload run and checks recovery
// against every durable image the scheme's legal survival sets reach at
// each (within b). MCBounds{MaxImages: 1} checks only the deterministic
// flush-on-fail image per point — the crash-injection campaign of the
// Figures 2/3 argument. See internal/crashmc and docs/ARCHITECTURE.md §10.
func ModelCheck(workloadName string, s Scheme, o Options, points int, first, step engine.Cycle, b MCBounds) (MCReport, error) {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return MCReport{}, err
	}
	mc := crashmc.Config{
		Workload:   w,
		Scheme:     s,
		System:     o.sysConfig(s),
		Params:     o.params(),
		FirstCrash: first,
		Step:       step,
		Points:     points,
		Parallel:   o.workers(),
		Bounds:     b,
	}
	return mc.Run(), nil
}

// ParseWitness decodes a witness produced by bbbmc -witness-out.
func ParseWitness(data []byte) (*MCWitness, error) { return crashmc.ParseWitness(data) }

// ReplayWitness rebuilds the witnessed machine and re-checks the exact
// surviving-write subset the witness pins (bbbmc -repro).
func ReplayWitness(w *MCWitness) (crashmc.ReplayOutcome, error) { return crashmc.Replay(w) }

// SchemeTraits returns the Table I qualitative row for a scheme.
func SchemeTraits(s Scheme) persistency.Traits { return persistency.TraitsOf(s) }

// Version identifies the reproduction, not the paper.
const Version = "1.0.0"

func init() {
	// Guard against the internal registry drifting from Table IV.
	if len(workload.Registry()) != 7 {
		panic(fmt.Sprintf("bbb: Table IV registry has %d workloads", len(workload.Registry())))
	}
}
