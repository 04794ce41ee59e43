// Package system wires the full simulated machine of Table III — cores,
// store buffers, L1Ds, shared L2, DRAM and NVMM controllers, and the
// selected persistency scheme — and runs workloads on it.
package system

import (
	"fmt"

	"bbb/internal/bbpb"
	"bbb/internal/coherence"
	"bbb/internal/cpu"
	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

// Config describes one simulation.
type Config struct {
	Scheme    persistency.Scheme
	Cores     int
	Hierarchy coherence.Config
	Core      cpu.Config
	BBPB      bbpb.Config
	DRAM      memctrl.Config
	NVMM      memctrl.Config
	Layout    memory.Layout
	// TrackWear enables per-line NVMM write accounting (endurance
	// distributions, not just the Fig. 7b totals).
	TrackWear bool
	// TraceCapacity, when positive, retains the last N microarchitectural
	// events for post-run inspection (System.Trace).
	TraceCapacity int
	// TraceSink, when non-nil, streams every event into the given sink
	// (e.g. a JSON-lines file) as the run executes. A sink alone retains
	// nothing: memory stays flat however long the run.
	TraceSink trace.Sink
	// AblateSBBattery removes the store buffer from the persistence domain
	// even for schemes that battery-back it — the §III-C ablation showing
	// why BBB (and eADR) must cover the SB to guarantee program-order
	// persistency for committed stores.
	AblateSBBattery bool
}

// DefaultConfig is the paper's Table III machine running the given scheme.
func DefaultConfig(s persistency.Scheme) Config {
	h := coherence.DefaultConfig()
	return Config{
		Scheme:    s,
		Cores:     h.Cores,
		Hierarchy: h,
		Core:      cpu.DefaultConfig(),
		BBPB:      bbpb.DefaultConfig(),
		DRAM:      memctrl.DefaultDRAM(),
		NVMM:      memctrl.DefaultNVMM(),
		Layout:    memory.DefaultLayout(),
	}
}

// System is a fully wired machine.
type System struct {
	Cfg   Config
	Eng   *engine.Engine
	Mem   *memory.Memory
	DRAM  *memctrl.Controller
	NVMM  *memctrl.Controller
	Hier  *coherence.Hierarchy
	Model *persistency.Model
	Cores []*cpu.Core
	// Prov tracks durability provenance when tracing is enabled.
	Prov *trace.Provenance

	// crashImg is CrashImage's copy of Mem, reused from call to call.
	crashImg *memory.Memory
}

// New builds a machine from cfg.
func New(cfg Config) *System {
	return NewOnImage(cfg, nil)
}

// NewOnImage builds a machine over an existing durable image — a reboot
// after a crash: caches, buffers, WPQ and store buffers start empty, and
// the NVMM holds whatever the previous machine's flush-on-fail left. A nil
// image starts from zeroed memory.
func NewOnImage(cfg Config, img *memory.Memory) *System {
	if cfg.Cores <= 0 {
		panic("system: Cores must be positive")
	}
	cfg.Hierarchy.Cores = cfg.Cores
	eng := engine.New()
	var prov *trace.Provenance
	if cfg.TraceCapacity > 0 || cfg.TraceSink != nil {
		eng.Trace = new(trace.Recorder) // a sink alone: stream, retain nothing
		if cfg.TraceCapacity > 0 {
			eng.Trace = trace.New(cfg.TraceCapacity)
		}
		// Tracing brings the rest of the observability stack with it:
		// histogram/gauge metrics and the durability-provenance tracker.
		eng.Metrics = stats.NewMetrics()
		prov = trace.NewProvenance(DurabilityPointFor(cfg.Scheme), eng.Metrics)
		eng.Trace.Attach(prov)
		if cfg.TraceSink != nil {
			eng.Trace.Attach(cfg.TraceSink)
		}
	}
	mem := img
	if mem == nil {
		mem = memory.New(cfg.Layout)
	}
	if cfg.TrackWear {
		mem.EnableWearTracking()
	}
	dram := memctrl.New(cfg.DRAM, eng, mem)
	nvmm := memctrl.New(cfg.NVMM, eng, mem)
	model := persistency.NewModel(cfg.Scheme, cfg.Cores, cfg.BBPB, eng, nvmm)
	cfg.Hierarchy = model.AdjustHierarchy(cfg.Hierarchy)
	hier := coherence.New(cfg.Hierarchy, eng, cfg.Layout, dram, nvmm, model.Policy())
	s := &System{
		Cfg:   cfg,
		Eng:   eng,
		Mem:   mem,
		DRAM:  dram,
		NVMM:  nvmm,
		Hier:  hier,
		Model: model,
		Prov:  prov,
	}
	ccfg := model.CoreConfig(cfg.Core)
	if cfg.AblateSBBattery {
		ccfg.BatteryBackedSB = false
	}
	for i := 0; i < cfg.Cores; i++ {
		s.Cores = append(s.Cores, cpu.New(i, ccfg, eng, hier))
	}
	return s
}

// DurabilityPointFor maps a scheme to the trace event that marks a
// committed store durable (Table I's PoP location, in provenance terms).
func DurabilityPointFor(s persistency.Scheme) trace.DurabilityPoint {
	switch s {
	case persistency.BBB, persistency.BBBProc:
		return trace.DurableAtBufAlloc
	case persistency.EADR, persistency.NVCache:
		return trace.DurableAtCommit
	default: // PMEM, BEP: the ADR WPQ is the persist point.
		return trace.DurableAtWPQ
	}
}

// Program is one thread's workload body, executed as a coroutine of the
// simulation against the core's Env.
type Program func(cpu.Env)

// Result summarizes one completed run.
type Result struct {
	Scheme persistency.Scheme
	// Cycles is the makespan: the cycle the last core finished.
	Cycles engine.Cycle
	// NVMMWrites counts line writes that reached the NVMM medium,
	// including the final WPQ flush (the endurance metric of Fig. 7b).
	NVMMWrites uint64
	// Rejections and Drains are the bbPB counters of Fig. 8 (zero for
	// schemes without persist buffers).
	Rejections uint64
	Drains     uint64
	// ForcedDrains counts LLC-inclusion forced drains.
	ForcedDrains uint64
	// SkippedWritebacks counts dirty persistent LLC victims dropped
	// without a memory write (§III-E's endurance optimization).
	SkippedWritebacks uint64
	// Stores and PersistingStores give the Table IV store mix.
	Stores           uint64
	PersistingStores uint64
	// Loads counts executed loads.
	Loads uint64
	// StallCycles sums program stall time on full store buffers.
	StallCycles engine.Cycle
	// DirtyFraction is the fraction of valid cache lines dirty at the end
	// of the run (the paper's §V-A eADR estimate uses 44.9%).
	DirtyFraction float64
	// Wear is the per-line NVMM write distribution (zero unless
	// Config.TrackWear was set).
	Wear memory.WearStats
	// Counters aggregates every component's raw counters.
	Counters *stats.Counters
	// Metrics holds the run's histograms and gauge timelines (nil unless
	// tracing was enabled).
	Metrics *stats.Metrics
}

// DurabilitySummary renders the visibility-to-durability gap histogram
// (persist.vis_to_dur_gap) as a one-line summary, or "(tracing off)".
func (r Result) DurabilitySummary() string {
	if r.Metrics == nil {
		return "(tracing off)"
	}
	h := r.Metrics.Hist("persist.vis_to_dur_gap")
	if h == nil {
		return "(no persisting stores observed)"
	}
	return fmt.Sprintf("%s vis->dur gap: %s", r.Scheme, h.Summary())
}

// Run starts one program per core and runs the machine until every program
// completes, then finalizes the WPQ so NVMM write counts are comparable
// across schemes. programs must have exactly one entry per core.
func (s *System) Run(programs []Program) Result {
	defer s.Shutdown()
	s.Start(programs)
	s.Eng.Run()
	for i, c := range s.Cores {
		if !c.Done() {
			panic(fmt.Sprintf("system: core %d never finished (deadlock?)", i))
		}
	}
	// Flush the WPQ so every scheme's durable write count is measured at
	// the same architectural point.
	s.NVMM.CrashDrain()
	return s.result()
}

// Start hands one program to each core without running anything; Advance
// then drives the machine. programs must have exactly one entry per core.
func (s *System) Start(programs []Program) {
	if len(programs) != s.Cfg.Cores {
		panic(fmt.Sprintf("system: %d programs for %d cores", len(programs), s.Cfg.Cores))
	}
	for i, p := range programs {
		s.Cores[i].Start(p)
	}
}

// RunUntil runs the machine until the given cycle (or completion) and
// reports whether every program finished. Used by crash injection.
func (s *System) RunUntil(limit engine.Cycle, programs []Program) bool {
	s.Start(programs)
	return s.Advance(limit)
}

// Advance continues a started machine until the given cycle (or
// completion) and reports whether every program has finished. Events at
// exactly limit still execute, so advancing through ascending limits
// leaves the machine in the same state as one RunUntil to the last of
// them; the crash walkers step one machine through their crash points
// this way.
func (s *System) Advance(limit engine.Cycle) bool {
	s.Eng.RunUntil(limit)
	for _, c := range s.Cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Crash stops the machine and performs the scheme's flush-on-fail drain,
// leaving the NVMM image exactly as post-crash recovery code would find it.
func (s *System) Crash() persistency.DrainReport {
	s.Shutdown()
	return s.Model.CrashDrain(s.Cores, s.Hier, s.NVMM, s.Mem)
}

// CrashImage returns the durable image a crash at this instant would leave
// (a copy of the NVMM image with the flush-on-fail applied) and the drain
// report, without crashing: memory, buffers, WPQ, store buffers, counters
// and trace are left exactly as they were, and the run may continue. The
// image is the machine's own scratch copy, overwritten by the next
// CrashImage call; Clone it to keep it longer.
func (s *System) CrashImage() (*memory.Memory, persistency.DrainReport) {
	s.crashImg = s.Mem.CloneInto(s.crashImg)
	return s.crashImg, s.Model.SnapshotDrain(s.Cores, s.Hier, s.NVMM, s.crashImg)
}

// Shutdown stops every core's workload program, unwinding any that are
// still suspended mid-run; safe to call more than once.
func (s *System) Shutdown() {
	for _, c := range s.Cores {
		c.Stop()
	}
}

// result folds the machine's counters into a Result once the run is over.
func (s *System) result() Result {
	r := Result{Scheme: s.Cfg.Scheme, Counters: stats.NewCounters()}
	for _, c := range s.Cores {
		if c.Done() && c.FinishedAt() > r.Cycles {
			r.Cycles = c.FinishedAt()
		}
		r.StallCycles += c.StallCycles
		r.Stores += c.Stats.Get("core.stores")
		r.Loads += c.Stats.Get("core.loads")
		r.Counters.Merge(c.Stats)
	}
	r.NVMMWrites = s.Mem.Writes[memory.RegionNVMM]
	r.PersistingStores = s.Hier.Stats.Get("store.persisting")
	r.Rejections = s.Hier.Stats.Get("store.persist_rejected")
	r.Drains = s.Model.Drains()
	r.SkippedWritebacks = s.Hier.Stats.Get("l2.writebacks_skipped")
	for _, c := range s.Model.BufferCounters() {
		r.ForcedDrains += c.Get("bbpb.forced_drains")
		r.Counters.Merge(c)
	}
	r.Counters.Merge(s.Hier.Stats)
	r.Counters.Merge(s.DRAM.Stats)
	r.Counters.Merge(s.NVMM.Stats)
	valid, dirty := s.Hier.DirtyStats()
	if valid > 0 {
		r.DirtyFraction = float64(dirty) / float64(valid)
	}
	r.Wear = s.Mem.Wear()
	r.Metrics = s.Eng.Metrics
	if s.Prov != nil {
		// r.Counters is built here, once per Result, so there is no
		// constructor to resolve handles in.
		r.Counters.Add("persist.resolved_stores", s.Prov.Resolved())     //bbbvet:ignore statlint once-per-run fold into a fresh Result
		r.Counters.Add("persist.unresolved_stores", s.Prov.Unresolved()) //bbbvet:ignore statlint once-per-run fold into a fresh Result
	}
	return r
}

// ResultAfterCrash collects counters without requiring completion.
func (s *System) ResultAfterCrash() Result { return s.result() }

// Trace returns the event recorder, or nil when tracing is off.
func (s *System) Trace() *trace.Recorder { return s.Eng.Trace }

// Metrics returns the histogram/gauge registry, or nil when tracing is off.
func (s *System) Metrics() *stats.Metrics { return s.Eng.Metrics }
