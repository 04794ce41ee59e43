package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain judges side B against side A (for example a change against
// its parent), each given as files holding the output of runs of this
// benchmark, by the rules of README.md "Comparing two sides": one row per
// workload and metric, each side's median and quartiles, the share of
// seed-paired runs B wins, "unresolved" where a side's spread exceeds the
// metric's bound, and exact equality for the exact metrics and the
// sim_fingerprint of runs with the same seed. It exits 1 when a metric
// regressed beyond its bound or an exact value differs.
func compareMain(args []string, stdout, stderr io.Writer) int {
	var sides [2][]string
	side := 0
	for _, a := range args {
		if a == "--" {
			side++
			continue
		}
		if side > 1 {
			fmt.Fprintln(stderr, "bench compare: more than one --")
			return 2
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(stderr, "usage: bench compare A1.json A2.json ... -- B1.json B2.json ...")
		return 2
	}
	var runs [2][]runOutput
	for i := range sides {
		for _, path := range sides[i] {
			rs, err := readRuns(path)
			if err != nil {
				fmt.Fprintln(stderr, "bench compare:", err)
				return 2
			}
			runs[i] = append(runs[i], rs...)
		}
	}
	rows, bad := compareRuns(runs[0], runs[1])
	fmt.Fprintf(stdout, "%-9s %-28s %-32s %-32s %8s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "verdict")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if bad {
		return 1
	}
	return 0
}

// runOutput is one run: its detail line and its result line.
type runOutput struct {
	detail detail
	result result
}

// readRuns parses a file of benchmark output; a file may hold several runs
// (bench -workload all).
func readRuns(path string) ([]runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runOutput
	var cur *detail
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &probe) != nil {
			continue
		}
		switch {
		case probe["workload"] != nil:
			var d detail
			if err := json.Unmarshal([]byte(line), &d); err != nil {
				return nil, fmt.Errorf("%s: detail line: %w", path, err)
			}
			cur = &d
		case probe["metrics"] != nil:
			if cur == nil {
				return nil, fmt.Errorf("%s: result line without a detail line", path)
			}
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", path, err)
			}
			out = append(out, runOutput{detail: *cur, result: r})
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result in the file", path)
	}
	return out, nil
}

// compareRuns renders the comparison rows and reports whether any row is a
// regression or an exact mismatch.
func compareRuns(a, b []runOutput) (rows []string, bad bool) {
	for _, w := range workloadNames(a, b) {
		ra, rb := byWorkload(a, w), byWorkload(b, w)
		if len(ra) == 0 || len(rb) == 0 {
			rows = append(rows, fmt.Sprintf("%-9s %-28s missing on one side", w, "-"))
			bad = true
			continue
		}
		for _, name := range metricNames(ra, rb) {
			m, _ := metricByName(name)
			get := func(r runOutput) (float64, bool) { return metricValue(r, name) }
			var row string
			var rowBad bool
			if m.exact {
				row, rowBad = identicalRow(ra, rb, get)
			} else {
				row, rowBad = timedRow(m, seedValues(ra, get), seedValues(rb, get))
			}
			rows = append(rows, fmt.Sprintf("%-9s %-28s %s", w, name, row))
			bad = bad || rowBad
		}
		row, rowBad := identicalRow(ra, rb, func(r runOutput) (string, bool) { return r.detail.Fingerprint, true })
		rows = append(rows, fmt.Sprintf("%-9s %-28s %s", w, "sim_fingerprint", row))
		bad = bad || rowBad
	}
	return rows, bad
}

func workloadNames(a, b []runOutput) []string {
	present := map[string]bool{}
	for _, r := range append(append([]runOutput(nil), a...), b...) {
		present[r.detail.Workload] = true
	}
	var out, rest []string
	for _, w := range workloads {
		if present[w.name] {
			out = append(out, w.name)
			delete(present, w.name)
		}
	}
	for w := range present {
		rest = append(rest, w)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func byWorkload(runs []runOutput, w string) []runOutput {
	var out []runOutput
	for _, r := range runs {
		if r.detail.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

// metricNames lists the metrics either side reports, in table order, plus
// the exact values of the detail lines.
func metricNames(sides ...[]runOutput) []string {
	have := map[string]bool{}
	for _, runs := range sides {
		for _, r := range runs {
			for k := range r.result.Metrics {
				have[k] = true
			}
			for k := range r.detail.Exact {
				have[k] = true
			}
		}
	}
	var out []string
	for _, tab := range [][]metric{endToEnd, perLayer} {
		for _, m := range tab {
			if have[m.name] {
				out = append(out, m.name)
				delete(have, m.name)
			}
		}
	}
	return out
}

func metricValue(r runOutput, name string) (float64, bool) {
	if v, ok := r.result.Metrics[name]; ok {
		return v.Value, true
	}
	v, ok := r.detail.Exact[name]
	return v, ok
}

// seedValue is one run's value of a metric.
type seedValue struct {
	seed int64
	v    float64
}

func seedValues(runs []runOutput, get func(runOutput) (float64, bool)) []seedValue {
	var out []seedValue
	for _, r := range runs {
		if v, ok := get(r); ok {
			out = append(out, seedValue{r.detail.Seed, v})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].seed < out[j].seed })
	return out
}

func values(svs []seedValue) []float64 {
	out := make([]float64, len(svs))
	for i, sv := range svs {
		out[i] = sv.v
	}
	return out
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the spreads match the ones computed outside this program.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// pairs matches runs of the same seed, or failing any common seed, runs by
// position.
func pairs(a, b []seedValue) [][2]float64 {
	var out [][2]float64
	for _, x := range a {
		for _, y := range b {
			if x.seed == y.seed {
				out = append(out, [2]float64{x.v, y.v})
				break
			}
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		out = append(out, [2]float64{a[i].v, b[i].v})
	}
	return out
}

func timedRow(m metric, a, b []seedValue) (string, bool) {
	qa1, ma, qa3 := quartiles(values(a))
	qb1, mb, qb3 := quartiles(values(b))
	better := func(x, y float64) bool { // x better than y
		if m.better == "higher" {
			return x > y
		}
		return x < y
	}
	ps := pairs(a, b)
	wins := 0
	for _, p := range ps {
		if better(p[1], p[0]) {
			wins++
		}
	}
	change := 0.0
	if ma != 0 {
		change = (mb - ma) / math.Abs(ma)
	}
	worse := change
	if m.better == "higher" {
		worse = -change
	}
	allBetter := true
	for _, y := range b {
		for _, x := range a {
			allBetter = allBetter && better(y.v, x.v)
		}
	}
	spread := math.Max(relSpread(qa1, ma, qa3), relSpread(qb1, mb, qb3))
	share := 0.0
	if len(ps) > 0 {
		share = float64(wins) / float64(len(ps))
	}
	verdict, bad := "", false
	switch {
	case m.bound == 0:
		verdict = "no bound (per-layer)"
	case allBetter:
		verdict = "better (every B run beats every A run)"
	case spread > m.bound:
		verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*spread, 100*m.bound)
	case worse > m.bound:
		verdict, bad = fmt.Sprintf("REGRESSED (worse by %.1f%% > bound %.0f%%)", 100*worse, 100*m.bound), true
	case share >= 0.9 && math.Abs(mb-ma) > qa3-qa1:
		verdict = "better"
	default:
		verdict = fmt.Sprintf("within bound %.0f%%", 100*m.bound)
	}
	return fmt.Sprintf("%-32s %-32s %+7.1f%% %3d/%-3d  %s",
		fmtQ(ma, qa1, qa3), fmtQ(mb, qb1, qb3), 100*change, wins, len(ps), verdict), bad
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func fmtQ(med, q1, q3 float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// identicalRow requires every seed both sides ran to give the same value.
func identicalRow[T comparable](a, b []runOutput, get func(runOutput) (T, bool)) (string, bool) {
	n := 0
	for _, x := range a {
		vx, ok := get(x)
		if !ok {
			continue
		}
		for _, y := range b {
			vy, ok := get(y)
			if !ok || x.detail.Seed != y.detail.Seed {
				continue
			}
			n++
			if vx != vy {
				return fmt.Sprintf("%-32.32v %-32.32v %8s %7s  DIFFERS at seed %d", vx, vy, "", "", x.detail.Seed), true
			}
		}
	}
	if n == 0 {
		return fmt.Sprintf("%-32s %-32s %8s %7s  no common seed", "", "", "", ""), false
	}
	return fmt.Sprintf("%-32s %-32s %8s %7s  identical over %d seed pairs", "", "", "", "", n), false
}
