package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// tracedRun is the layer-resolved run. After the usual set-up it makes one
// plain pass (the reference for the tracing overhead and the host CPU and
// memory metrics), passes under the CPU profiler for the rest of the time
// budget (folded into per-layer host shares), and the decomposed pass (spans
// and counters). It writes <workload>.cpu.pprof, .spans.jsonl and
// .perfetto.json to cfg.traceDir.
func tracedRun(w workload, cfg config, stderr io.Writer) (report, error) {
	var t tally
	setups, _ := setup(w, cfg, &t)
	units := w.plan(cfg.seed, cfg.full, par)

	start := time.Now()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	plain := runPass(units)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	t.add(plain.outs...)

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return report{}, err
	}
	base := filepath.Join(cfg.traceDir, w.name)
	var (
		profiled      pass // the first profiled pass; the decomposed pass checks against it
		profiledWalls []float64
	)
	err := profilePasses(units, base+".cpu.pprof", func(p pass) bool {
		t.add(p.outs...)
		if p.fp != plain.fp {
			t.failed++
			t.fail(errors.New("a profiled pass simulated different results"))
		}
		if len(profiledWalls) == 0 {
			profiled = p
		}
		profiledWalls = append(profiledWalls, p.wall)
		// Another profiled pass starts while it and the decomposed pass,
		// each about as long as this one, still end within the budget.
		return time.Since(start).Seconds()+2*p.wall <= cfg.seconds
	})
	if err != nil {
		return report{}, err
	}
	shares, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return report{}, err
	}

	d := newDecomposer()
	t.add(runUnit(unit{name: w.name + " decomposed pass", run: func() outcome {
		return outcome{err: w.decompose(d, cfg.seed, cfg.full, profiled.outs)}
	}}))
	spans := d.sortedSpans()
	if err := writeSpans(base+".spans.jsonl", spans); err != nil {
		return report{}, err
	}
	if err := writePerfetto(base+".perfetto.json", spans); err != nil {
		return report{}, err
	}

	metrics := d.metrics()
	for k, v := range shares {
		metrics[k] = v
	}
	exact := exactValues(profiled.outs)
	for _, m := range perLayer {
		if v, ok := exact[m.name]; ok {
			metrics[m.name] = v
		} else if _, ok := metrics[m.name]; !ok {
			metrics[m.name] = 0
		}
	}
	if exact["crashmc.sets"] > 0 {
		metrics["crashmc.dedupe_ratio"] = exact["crashmc.images"] / exact["crashmc.sets"]
	}
	metrics["host.cpu_util_pct"] = 100 * (cpu1 - cpu0) / (plain.wall * float64(runtime.GOMAXPROCS(0)))
	metrics["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	metrics["runtime.num_gc"] = float64(after.NumGC - before.NumGC)
	metrics["bench.trace_overhead_pct"] = 100 * (median(profiledWalls)/plain.wall - 1)

	det := newDetail(w, cfg, []pass{plain, profiled}, setups)
	det.PassSeconds = append([]float64{plain.wall}, profiledWalls...)
	det.Files = []string{base + ".cpu.pprof", base + ".spans.jsonl", base + ".perfetto.json"}
	fmt.Fprintf(stderr, "bench: %s traced: %d spans, host shares sum %.2f%%\n", w.name, len(spans), sumShares(shares))
	return report{detail: det, tally: t, metrics: metrics}, nil
}

// profilePasses runs passes under one CPU profile written to path, handing
// each to next, until next returns false.
func profilePasses(units []unit, path string, next func(p pass) bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting the CPU profile: %w", err)
	}
	for next(runPass(units)) {
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing the CPU profile: %w", err)
	}
	return nil
}

// foldProfile folds `go tool pprof -traces` over the profile at path.
func foldProfile(path string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.String())
	}
	return fold(bytes.NewReader(out))
}

func sumShares(shares map[string]float64) float64 {
	t := 0.0
	for _, v := range shares {
		t += v
	}
	return t
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func writeSpans(path string, spans []span) error {
	return writeFile(path, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// writePerfetto writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open: one complete ("X") event per span, one track
// per worker.
func writePerfetto(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"unit": s.Unit, "id": s.ID, "parent": s.Parent}
		if s.Count > 0 {
			args["images"] = s.Count
		}
		events = append(events, event{Name: s.Name, Cat: "bench", Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Worker, Args: args})
	}
	return writeFile(path, func(w *bufio.Writer) error {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	})
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
