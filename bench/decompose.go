package main

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"bbb"
	"bbb/internal/crashmc"
	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/system"
	wl "bbb/internal/workload"
)

// The decomposed pass re-executes the job's units one layer call at a
// time — workload.Build, System.Run, crashmc.Capture, crashmc.Enumerate,
// Workload.Check — recording a span around each call and summing the
// machines' counters, then requires the same results the drivers returned.
// It is the only code of the benchmark that reaches below the root package,
// so internal refactors touch this file alone.

// span is one timed call, in nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a unit's root span
	Unit   string `json:"unit"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the number of images a Workload.Check span validated.
	Count int `json:"count,omitempty"`
}

type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (r *recorder) begin(unit, name string, parent, worker int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Unit: unit, Name: name, Worker: worker, Start: now})
	return id
}

func (r *recorder) end(id, count int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Count = count
}

// decomposer carries one decomposed pass's spans and summed counters.
type decomposer struct {
	rec recorder

	mu       sync.Mutex
	events   uint64
	nvmm     uint64
	counters map[string]uint64
}

func newDecomposer() *decomposer {
	return &decomposer{rec: recorder{epoch: time.Now()}, counters: map[string]uint64{}}
}

// counted are the raw counters the per-layer metrics are built from.
var counted = []string{
	"l1.load_hits", "l1.store_hits", "l1.load_misses", "l1.store_misses", "l2.misses",
	"l1.invalidations", "l1.back_invalidations",
	"bbpb.allocations", "bbpb.coalesced", "bbpb.rejections", "bbpb.forced_drains",
	"nvmm.wpq_full_stalls",
}

func (d *decomposer) observe(sys *system.System, res system.Result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.events += sys.Eng.Dispatched
	d.nvmm += res.NVMMWrites
	for _, n := range counted {
		d.counters[n] += res.Counters.Get(n)
	}
}

// simulate is workload.Run with a span around each layer call (the Table IV
// workloads have no service metrics to fold in).
func (d *decomposer) simulate(u string, parent, worker int, name string, s persistency.Scheme, o bbb.Options) (system.Result, error) {
	w, err := wl.ByName(name)
	if err != nil {
		return system.Result{}, err
	}
	id := d.rec.begin(u, "workload.Build", parent, worker)
	sys, progs := wl.Build(w, s, sysConfig(s, o), params(o))
	d.rec.end(id, 0)
	id = d.rec.begin(u, "System.Run", parent, worker)
	res := sys.Run(progs)
	d.rec.end(id, 0)
	d.observe(sys, res)
	return res, nil
}

// sysConfig and params mirror bbb.Options' translation for the fields the
// benchmark sets; the deep-equal checks catch any drift.
func sysConfig(s persistency.Scheme, o bbb.Options) system.Config {
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
	return cfg
}

func params(o bbb.Options) wl.Params {
	p := wl.DefaultParams()
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
	return p
}

// forEach runs fn(i, worker) for i in [0, n) on workers goroutines and
// returns once every call has.
func forEach(n, workers int, fn func(i, worker int)) {
	next := make(chan int, n) // holds every index, so sends never block
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i, w)
			}
		}()
	}
	wg.Wait()
}

// errs collects the first error of concurrent calls.
type errs struct {
	mu  sync.Mutex
	err error
}

func (e *errs) set(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

// --- per workload ---

var fig7Variants = []struct {
	label   string
	scheme  persistency.Scheme
	entries int
}{{"eadr", bbb.SchemeEADR, 0}, {"bbb-32", bbb.SchemeBBB, 32}, {"bbb-1024", bbb.SchemeBBB, 1024}}

func decomposeFig7(d *decomposer, seed int64, sz size, outs []outcome) error {
	names := bbb.Workloads()
	n := len(fig7Variants)
	res := make([]system.Result, n*len(names))
	var e errs
	forEach(len(res), par, func(i, worker int) {
		v := fig7Variants[i%n]
		o := fig7Options(seed, sz.ops, par)
		if v.entries > 0 {
			o.BBPBEntries = v.entries
		}
		u := fmt.Sprintf("fig7/seed=%d/%s/%s", seed, names[i/n], v.label)
		root := d.rec.begin(u, "unit", 0, worker)
		r, err := d.simulate(u, root, worker, names[i/n], v.scheme, o)
		d.rec.end(root, 0)
		if err != nil {
			e.set(err)
		}
		res[i] = r
	})
	if e.err != nil {
		return e.err
	}
	if got := fig7FromResults(names, res); !reflect.DeepEqual(got, outs[0].out) {
		return errors.New("decomposed fig7 differs from bbb.RunFig7")
	}
	return nil
}

// fig7FromResults assembles Figure 7 from its eADR, BBB-32 and BBB-1024
// results the way bbb.RunFig7 does.
func fig7FromResults(names []string, res []system.Result) bbb.Fig7Result {
	var out bbb.Fig7Result
	var execs, writes32, writes1024 []float64
	for wi, name := range names {
		eadr, b32, b1024 := res[3*wi], res[3*wi+1], res[3*wi+2]
		row := bbb.Fig7Row{
			Workload:      name,
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
	out.MeanWriteOverheadBBB32 = stats.Geomean(writes32) - 1
	out.MeanWriteOverheadBBB1024 = stats.Geomean(writes1024) - 1
	return out
}

// mcPoint is what the decomposed pass and crashmc both report per crash
// point.
type mcPoint struct {
	crash                                  bbb.Cycle
	finished                               bool
	pending, sets, images, violatingImages int
	skipped                                uint64
}

func decomposeCrashMC(d *decomposer, seed int64, sz size, outs []outcome) error {
	for ci, c := range mcMatrix() {
		step := mcStep(c.workload, sz.points)
		o := mcOptions(c, seed, sz.ops, par)
		got := make([]mcPoint, sz.points)
		var e errs
		forEach(sz.points, par, func(i, worker int) {
			crashAt := mcFirstCrash + bbb.Cycle(i)*step
			u := fmt.Sprintf("%s/%s/barriers=%v/seed=%d@%d", c.workload, c.scheme, !c.noBarriers, seed, crashAt)
			root := d.rec.begin(u, "crashmc.point", 0, worker)
			p, err := d.crashPoint(u, root, worker, c, o, crashAt)
			d.rec.end(root, 0)
			if err != nil {
				e.set(err)
			}
			got[i] = p
		})
		if e.err != nil {
			return e.err
		}
		rep := outs[ci].out.(bbb.MCReport)
		want := make([]mcPoint, len(rep.Points))
		for i, p := range rep.Points {
			want[i] = mcPoint{crash: p.CrashCycle, finished: p.Finished, pending: p.Pending, sets: p.Sets,
				images: p.DistinctImages, violatingImages: p.ViolatingImages, skipped: p.SetsSkipped}
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("decomposed %s/%s crash points differ from bbb.ModelCheck", c.workload, c.scheme)
		}
	}
	return nil
}

// crashPoint is crashmc's per-point exploration with a span per stage.
func (d *decomposer) crashPoint(u string, parent, worker int, c mcConfig, o bbb.Options, crashAt bbb.Cycle) (mcPoint, error) {
	w, err := wl.ByName(c.workload)
	if err != nil {
		return mcPoint{}, err
	}
	id := d.rec.begin(u, "workload.Build", parent, worker)
	sys, progs := wl.Build(w, c.scheme, sysConfig(c.scheme, o), params(o))
	d.rec.end(id, 0)
	id = d.rec.begin(u, "System.RunUntil", parent, worker)
	finished := sys.RunUntil(crashAt, progs)
	d.rec.end(id, 0)
	id = d.rec.begin(u, "crashmc.Capture", parent, worker)
	rec := crashmc.Capture(sys, crashAt, finished)
	d.rec.end(id, 0)
	id = d.rec.begin(u, "crashmc.Enumerate", parent, worker)
	enum := crashmc.Enumerate(rec, crashmc.Bounds{})
	d.rec.end(id, 0)
	id = d.rec.begin(u, "Workload.Check", parent, worker)
	p := mcPoint{crash: crashAt, finished: finished, pending: len(rec.Pending), sets: enum.Sets,
		images: len(enum.Images), skipped: enum.SetsSkipped}
	scratch := rec.Base.Clone()
	for _, img := range enum.Images {
		crashmc.ApplyOverlay(scratch, img.Overlay)
		if w.Check(scratch) != nil {
			p.violatingImages++
		}
		crashmc.RevertOverlay(scratch, rec.Base, img.Overlay)
	}
	d.rec.end(id, len(enum.Images))
	d.observe(sys, sys.ResultAfterCrash())
	return p, nil
}

// --- metrics from the decomposed pass ---

func (d *decomposer) metrics() map[string]float64 {
	dur := map[string][]float64{} // ms per span name
	for _, s := range d.rec.spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
	}
	sum := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			for _, v := range dur[n] {
				t += v
			}
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runs := append(append([]float64(nil), dur["System.Run"]...), dur["System.RunUntil"]...)
	build, run, point := sum("workload.Build"), sum("System.Run", "System.RunUntil"), sum("crashmc.point")
	c := d.counters
	hits := float64(c["l1.load_hits"] + c["l1.store_hits"])
	misses := float64(c["l1.load_misses"] + c["l1.store_misses"])
	return map[string]float64{
		"engine.events":               float64(d.events),
		"engine.ns_per_event":         ratio(run*1e6, float64(d.events)),
		"coherence.l1_hit_ratio":      ratio(hits, hits+misses),
		"coherence.l2_misses":         float64(c["l2.misses"]),
		"coherence.invalidations":     float64(c["l1.invalidations"] + c["l1.back_invalidations"]),
		"bbpb.allocations":            float64(c["bbpb.allocations"]),
		"bbpb.coalesce_ratio":         ratio(float64(c["bbpb.coalesced"]), float64(c["bbpb.allocations"]+c["bbpb.coalesced"])),
		"bbpb.rejections":             float64(c["bbpb.rejections"]),
		"bbpb.forced_drains":          float64(c["bbpb.forced_drains"]),
		"memctrl.nvmm_writes":         float64(d.nvmm),
		"memctrl.wpq_full_stalls":     float64(c["nvmm.wpq_full_stalls"]),
		"system.build_ms_p50":         median(dur["workload.Build"]),
		"system.run_ms_p50":           median(runs),
		"system.build_share_pct":      100 * ratio(build, build+run),
		"crashmc.capture_share_pct":   100 * ratio(sum("crashmc.Capture"), point),
		"crashmc.enumerate_share_pct": 100 * ratio(sum("crashmc.Enumerate"), point),
		"crashmc.validate_share_pct":  100 * ratio(sum("Workload.Check"), point),
	}
}

// sortedSpans returns the spans in start order.
func (d *decomposer) sortedSpans() []span {
	out := append([]span(nil), d.rec.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
