// Command bench is the repository's benchmark: it times the public
// experiment drivers on two fixed workloads and, in a separate traced run,
// attributes the host time to the simulator's layers.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload fig7|crashmc|all [-seed S] [-seconds N] [-trace 0|1] [-trace-dir DIR]
//	bench compare A1.json A2.json ... -- B1.json B2.json ...
//
// A run prints a detail line (seed, pass times, sim_fingerprint, the exact
// simulated values) and, last, one JSON object with "correct", "attempted",
// "failed" and "metrics". With -trace 0 the metrics are the end-to-end ones,
// with -trace 1 the per-layer ones; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// minPasses is the fewest timed passes a run makes, whatever -seconds says.
const minPasses = 2

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "reference" {
		os.Exit(referenceMain(os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// warm sizes the set-up's warm-up job, full the timed job.
	warm, full size
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig7, crashmc, or all (one process per workload)")
	seed := fs.Int64("seed", 1, "seed the workload's simulated programs are generated from")
	seconds := fs.Float64("seconds", 60, "time budget of the timed passes (at least 2 passes run)")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>.spans.jsonl, .perfetto.json and .cpu.pprof")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll([]string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*traceFlag), "-trace-dir", *traceDir}, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want fig7, crashmc or all)\n", *name)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, traceDir: *traceDir,
		warm: w.warm, full: w.full}
	var (
		rep report
		err error
	)
	if cfg.trace {
		rep, err = tracedRun(w, cfg, stderr)
	} else {
		rep, err = timedRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runAll re-executes the binary once per workload with args, so each
// workload's peak_rss_mb is its own, and passes the outputs through.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		start := time.Now()
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		fmt.Fprintf(stderr, "bench: %s run took %.1f s\n", w.name, time.Since(start).Seconds())
	}
	return code
}

// pass is one timed execution of a workload's job.
type pass struct {
	wall  float64 // seconds
	rssMB float64 // peak resident set during the pass (timed passes only)
	items int     // work items completed (see workload.item)
	fp    string  // sim_fingerprint
	outs  []outcome
}

// runPass runs units one after another and returns their outcomes in unit
// order. A unit that panics fails.
func runPass(units []unit) pass {
	outs := make([]outcome, len(units))
	start := time.Now()
	for i, u := range units {
		outs[i] = runUnit(u)
	}
	p := pass{wall: time.Since(start).Seconds(), fp: fingerprint(outs), outs: outs}
	for _, o := range outs {
		p.items += o.items
	}
	return p
}

func runUnit(u unit) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{err: fmt.Errorf("%s: panic: %v", u.name, r)}
		}
	}()
	o = u.run()
	if o.err != nil {
		o.err = fmt.Errorf("%s: %w", u.name, o.err)
	}
	return o
}

// tally counts attempted and failed units and keeps the first errors.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(outs ...outcome) {
	for _, o := range outs {
		t.attempted++
		if o.err != nil {
			t.failed++
			t.fail(o.err)
		}
	}
}

func (t *tally) fail(err error) {
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

// setup runs the reduced-size warm-up job setupReps times (lazy
// initialization, registries, page cache). It returns each set-up's seconds
// and the first set-up's outcomes.
func setup(w workload, cfg config, t *tally) ([]float64, []outcome) {
	var times []float64
	var first []outcome
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		p := runPass(w.plan(cfg.seed, cfg.warm, par))
		times = append(times, time.Since(start).Seconds())
		t.add(p.outs...)
		if i == 0 {
			first = p.outs
		}
	}
	return times, first
}

// timedPasses repeats the job for cfg.seconds: it starts another pass while
// one as long as the last still ends within the budget, and makes at least
// minPasses. It records each pass's peak resident set and checks every pass
// simulated the same thing. It also returns the reference times taken before
// the first pass and after each one.
func timedPasses(w workload, cfg config, t *tally) ([]pass, []float64, error) {
	units := w.plan(cfg.seed, cfg.full, par)
	var passes []pass
	r, err := referenceSeconds()
	if err != nil {
		return nil, nil, err
	}
	refs := []float64{r}
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds()+passes[len(passes)-1].wall <= cfg.seconds {
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		p := runPass(units)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		p.rssMB = rss
		r, err := referenceSeconds()
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, r)
		t.add(p.outs...)
		if len(passes) > 0 {
			if p.fp != passes[0].fp {
				t.failed++
				t.fail(errors.New("a repeated pass simulated different results"))
			}
			// Only the first pass's results are kept, so the passes'
			// peaks do not grow with results held from earlier ones.
			p.outs = nil
		}
		passes = append(passes, p)
	}
	return passes, refs, nil
}

// serialRecheck re-runs the warm-up job's first unit at Parallelism 1 and
// requires a result deep-equal to what the parallel set-up returned. It runs
// at warm-up size so that it costs the run well under a second.
func serialRecheck(w workload, cfg config, first outcome, t *tally) {
	o := runUnit(w.plan(cfg.seed, cfg.warm, 1)[0])
	t.add(o)
	if o.err == nil && !reflect.DeepEqual(o.out, first.out) {
		t.failed++
		t.fail(errors.New("serial re-run differs from the parallel pass"))
	}
}

// report is what a run prints; it is correct when no unit failed.
type report struct {
	detail  detail
	tally   tally
	metrics map[string]float64
}

// detail is a run's first output line. Its times are as measured, unscaled;
// RefSeconds are a timed run's reference times: before the set-up, before
// the first pass and after each pass.
type detail struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Item        string             `json:"item"`
	Items       int                `json:"items_per_pass"`
	PassSeconds []float64          `json:"pass_s"`
	PassRSS     []float64          `json:"pass_rss_mb,omitempty"`
	SetupSecs   []float64          `json:"setup_runs_s"`
	RefSeconds  []float64          `json:"ref_s,omitempty"`
	Fingerprint string             `json:"sim_fingerprint"`
	Exact       map[string]float64 `json:"exact"`
	Errors      []string           `json:"errors,omitempty"`
	Files       []string           `json:"files,omitempty"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func (r report) write(out io.Writer) error {
	r.detail.Errors = r.tally.errs
	d, err := json.Marshal(r.detail)
	if err != nil {
		return fmt.Errorf("encoding detail: %w", err)
	}
	res := result{Correct: r.tally.failed == 0, Attempted: r.tally.attempted,
		Failed: r.tally.failed, Metrics: map[string]valueUnit{}}
	for name, v := range r.metrics {
		m, _ := metricByName(name)
		res.Metrics[name] = valueUnit{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", d, line)
	return err
}

// timedRun is the untraced run: set-up, timed passes, serial re-check, and
// the end-to-end metrics. Host times are scaled to the reference's nominal
// speed: the set-up and each pass by the mean of the reference times taken
// just before and just after it (reference.go).
func timedRun(w workload, cfg config) (report, error) {
	var t tally
	before, err := referenceSeconds()
	if err != nil {
		return report{}, err
	}
	setups, warm := setup(w, cfg, &t)
	passes, refs, err := timedPasses(w, cfg, &t)
	if err != nil {
		return report{}, err
	}
	serialRecheck(w, cfg, warm[0], &t)
	scale := func(secs, refBefore, refAfter float64) float64 {
		return secs * refNominal / ((refBefore + refAfter) / 2)
	}
	var walls, rates, rss []float64
	for i, p := range passes {
		wall := scale(p.wall, refs[i], refs[i+1])
		walls = append(walls, wall)
		rates = append(rates, float64(p.items)/wall)
		rss = append(rss, p.rssMB)
	}
	det := newDetail(w, cfg, passes, setups)
	det.RefSeconds = append([]float64{before}, refs...)
	return report{
		detail: det,
		tally:  t,
		metrics: map[string]float64{
			"wall_s":      median(walls),
			"items_per_s": median(rates),
			"peak_rss_mb": median(rss),
			"setup_s":     scale(median(setups), before, refs[0]),
		},
	}, nil
}

func newDetail(w workload, cfg config, passes []pass, setups []float64) detail {
	d := detail{Workload: w.name, Seed: cfg.seed, Item: w.item, Items: passes[0].items,
		SetupSecs: setups, Fingerprint: passes[0].fp, Exact: exactValues(passes[0].outs)}
	if cfg.trace {
		d.Trace = 1
	}
	for _, p := range passes {
		d.PassSeconds = append(d.PassSeconds, p.wall)
		if p.rssMB > 0 {
			d.PassRSS = append(d.PassRSS, p.rssMB)
		}
	}
	return d
}

// exactValues merges the units' simulated values: counts add up over the
// pass, anything else (quantiles, errors) is the first unit's.
func exactValues(outs []outcome) map[string]float64 {
	out := map[string]float64{}
	for _, o := range outs {
		for k, v := range o.exact {
			m, _ := metricByName(k)
			if _, seen := out[k]; !seen || m.unit == "count" {
				out[k] += v
			}
		}
	}
	return out
}

// resetPeakRSS returns freed heap to the kernel and restarts its
// peak-resident-set count (VmHWM) there, so the next peak is what the next
// pass needs rather than what earlier passes left mapped.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
