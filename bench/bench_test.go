package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when a timed
// run starts the reference in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "reference" {
		os.Exit(referenceMain(os.Stdout))
	}
	os.Exit(m.Run())
}

func TestFoldPinsBuckets(t *testing.T) {
	f, err := os.Open("testdata/fold.traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := fold(f)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture holds 240 ms of samples: channel and select frames under
	// internal/cpu (30 ms), a GC mark worker (10), stacks with no repository
	// frame (60), a root-package frame above the allocator (10) and plain
	// layer stacks.
	want := map[string]float64{
		"cpu.handoff_pct":    30.0 / 2.4,
		"runtime.gc_pct":     10.0 / 2.4,
		"runtime.sched_pct":  60.0 / 2.4,
		"other.host_pct":     10.0 / 2.4,
		"cpu.host_pct":       30.0 / 2.4,
		"engine.host_pct":    30.0 / 2.4,
		"cache.host_pct":     20.0 / 2.4,
		"coherence.host_pct": 20.0 / 2.4,
		"workload.host_pct":  20.0 / 2.4,
		"memory.host_pct":    10.0 / 2.4,
	}
	sum := 0.0
	for _, b := range hostShares {
		got, ok := shares[b]
		if !ok {
			t.Errorf("fold reported no %s", b)
		}
		if math.Abs(got-want[b]) > 1e-9 {
			t.Errorf("%s = %.4f, want %.4f", b, got, want[b])
		}
		sum += got
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("shares sum to %.3f, want 100 ± 1", sum)
	}
	if _, err := fold(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("fold of a profile without samples succeeded")
	}
}

func TestMetricNamesAreValid(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) {
			t.Errorf("metric name %q is not valid", m.name)
		}
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is not valid", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s is declared twice", m.name)
		}
		seen[m.name] = true
	}
}

// benchmarkSpec is BENCHMARK.json; unknown keys fail the decode.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, ours)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, bench prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range spec.EndToEnd {
		o := endToEnd[i]
		if m.Name != o.name || m.Unit != o.unit || m.Better != o.better || m.Bound != o.bound {
			t.Errorf("end_to_end[%d] = %+v, bench has %+v", i, m, o)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, bench prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		o := perLayer[i]
		if m.Name != o.name || m.Unit != o.unit || m.Better != o.better {
			t.Errorf("per_layer[%d] = %+v, bench has %+v", i, m, o)
		}
	}
}

// TestTinyRuns runs every workload at test size: a traced run at seed 1 and
// a timed run at seed 2. Both must pass every check, print exactly the
// metrics BENCHMARK.json declares for their mode, and the two seeds must
// simulate different things.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, traceDir: t.TempDir(), warm: w.tiny, full: w.tiny, trace: true}
			traced, err := tracedRun(w, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			res := checkReport(t, traced, perLayer)
			sum := 0.0
			for _, b := range hostShares {
				sum += res.Metrics[b].Value
			}
			if math.Abs(sum-100) > 1 {
				t.Errorf("host shares sum to %.3f, want 100 ± 1", sum)
			}
			for _, f := range traced.detail.Files {
				if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
					t.Errorf("traced run left no %s", filepath.Base(f))
				}
			}

			cfg.seed, cfg.trace = 2, false
			timed, err := timedRun(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, timed, endToEnd)
			if timed.detail.Fingerprint == traced.detail.Fingerprint {
				t.Errorf("seeds 1 and 2 have the same sim_fingerprint %s", timed.detail.Fingerprint)
			}
		})
	}
}

// checkReport prints rep, requires a correct result with no failed unit
// and exactly the metrics of tab, and returns the parsed last line.
func checkReport(t *testing.T, rep report, tab []metric) result {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, rep.tally.errs)
	}
	if len(res.Metrics) != len(tab) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(tab))
	}
	for _, m := range tab {
		v, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
		} else if v.Unit != m.unit {
			t.Errorf("metric %s printed with unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
	return res
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) of each input.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.9, 3.3, 3.0, 3.2}, [3]float64{2.95, 3.1, 3.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	side := func(scale float64, fp func(seed int64) string) []runOutput {
		var out []runOutput
		for seed := int64(1); seed <= 6; seed++ {
			wall := scale * (10 + 0.05*float64(seed%3))
			out = append(out, runOutput{
				detail: detail{Workload: "crashmc", Seed: seed, Fingerprint: fp(seed),
					Exact: map[string]float64{"crashmc.images": 186195}},
				result: result{Correct: true, Attempted: 1, Metrics: map[string]valueUnit{"wall_s": {Value: wall, Unit: "s"}}},
			})
		}
		return out
	}
	same := func(int64) string { return "f" }
	base := side(1, same)
	cases := []struct {
		name    string
		b       []runOutput
		bad     bool
		verdict string
	}{
		{"unchanged", side(1, same), false, "within bound"},
		{"slower", side(1.3, same), true, "REGRESSED"},
		{"faster", side(0.7, same), false, "better"},
		{"fingerprint", side(1, func(s int64) string { return map[bool]string{true: "g", false: "f"}[s == 3] }), true, "DIFFERS at seed 3"},
	}
	for _, c := range cases {
		rows, bad := compareRuns(base, c.b)
		text := strings.Join(rows, "\n")
		if bad != c.bad || !strings.Contains(text, c.verdict) {
			t.Errorf("%s: bad=%v, rows:\n%s", c.name, bad, text)
		}
	}
}

func TestCompareReadsRunOutput(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64) string {
		rep := report{
			detail:  detail{Workload: "fig7", Seed: 1, Fingerprint: "f", Exact: map[string]float64{"fig7.paper_err_pct": 6.1}},
			tally:   tally{attempted: 3},
			metrics: map[string]float64{"wall_s": wall, "items_per_s": 21 / wall, "peak_rss_mb": 12, "setup_s": 0.3},
		}
		var buf bytes.Buffer
		if err := rep.write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, slow := write("a.json", 3.2), write("b.json", 3.21), write("slow.json", 4.5)
	if code := compareMain([]string{a, "--", b}, io.Discard, io.Discard); code != 0 {
		t.Errorf("compare of equal runs exited %d", code)
	}
	if code := compareMain([]string{a, "--", slow}, io.Discard, io.Discard); code != 1 {
		t.Errorf("compare of a regression exited %d", code)
	}
	if code := compareMain([]string{a}, io.Discard, io.Discard); code != 2 {
		t.Errorf("compare without a second side exited %d", code)
	}
}
