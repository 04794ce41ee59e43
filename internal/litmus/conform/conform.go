// Package conform is the litmus conformance gate: for every corpus test ×
// scheme it enumerates the operationally reachable post-crash outcomes
// with the crash-image model checker (internal/crashmc) and requires them
// to be a subset of the axiomatic allowed set (internal/axiomatic) under
// the scheme's persistency model. It additionally requires the
// battery-complete schemes to expose exactly one reachable image per
// crash point — the paper's strict-persistency collapse — and reports
// (rather than hides) every case where a scheme's model strengthens the
// relaxed Px86 envelope.
//
// Every image is judged on crashmc's own validation path
// (crashmc.Config.CheckRecord): the judge reads the image's litmus outcome
// and rejects it when it lies outside the allowed set, so a divergence is
// minimized with crashmc's shrinker and pinned as a replayable
// crashmc.Witness exactly as a recovery-checker violation is, and CI
// failures arrive with a repro: `bbblitmus explain -witness <file>`
// rebuilds the machine and triages it.
package conform

import (
	"fmt"
	"sort"
	"strings"

	"bbb/internal/axiomatic"
	"bbb/internal/crashmc"
	"bbb/internal/engine"
	"bbb/internal/litmus"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/sweep"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// ModelFor maps a scheme to its Px86-TSO persistency model: PMEM exposes
// relaxed Px86, BEP orders through epochs, and the battery-complete
// schemes are strict (persist order = visibility order, §III-D).
func ModelFor(s persistency.Scheme) axiomatic.Model {
	t := persistency.TraitsOf(s)
	switch {
	case t.EpochMode:
		return axiomatic.Epoch
	case t.ExplicitPersist:
		return axiomatic.Relaxed
	default:
		return axiomatic.Strict
	}
}

// Options configure a conformance run.
type Options struct {
	// Tests to check; nil means the full corpus.
	Tests []*litmus.Test
	// Schemes to check; nil means every scheme.
	Schemes []persistency.Scheme
	// Points is the number of crash points per pair, spread over the
	// run's makespan plus one past completion. Zero means 8.
	Points int
	// Parallel fans test×scheme pairs out over sweep.Map; the report is
	// identical at any width. Zero or one means serial.
	Parallel int
	// Bounds prune each point's enumeration (crashmc defaults if zero).
	Bounds crashmc.Bounds
}

// PairResult is one test × scheme conformance check.
type PairResult struct {
	Test   string
	Scheme persistency.Scheme
	Model  axiomatic.Model
	// Points is the number of distinct crash points explored (fewer than
	// Options.Points when the makespan is too short to spread them);
	// MultiImagePoints counts those where a strict scheme exposed more
	// than one reachable image (must be zero — the strict-persistency
	// collapse).
	Points           int
	MultiImagePoints int
	// Operational is the deduplicated sorted outcome set crashmc reached.
	Operational []axiomatic.Outcome
	// AllowedCount and RelaxedCount size the scheme-model and relaxed
	// Px86 allowed sets; Collapsed flags AllowedCount < RelaxedCount —
	// the scheme provably strengthens relaxed Px86 on this shape.
	AllowedCount int
	RelaxedCount int
	Collapsed    bool
	// Divergent counts the distinct crash images, summed over the crash
	// points, whose outcome lies outside the allowed set.
	Divergent int
	// Witness replays the first divergent point's first divergence,
	// minimized (`bbblitmus explain`); nil when none diverged.
	Witness *crashmc.Witness
}

// Ok reports whether the pair conforms: operational ⊆ allowed, and (for
// strict schemes) one image per crash point.
func (p PairResult) Ok() bool { return p.Divergent == 0 && p.MultiImagePoints == 0 }

// Report aggregates a conformance run.
type Report struct {
	Points int
	Pairs  []PairResult
}

// Ok reports whether every pair conforms.
func (r Report) Ok() bool {
	for _, p := range r.Pairs {
		if !p.Ok() {
			return false
		}
	}
	return true
}

// FirstWitness returns the first divergence witness, if any.
func (r Report) FirstWitness() *crashmc.Witness {
	for _, p := range r.Pairs {
		if p.Witness != nil {
			return p.Witness
		}
	}
	return nil
}

// Run executes the conformance matrix.
func Run(o Options) Report {
	tests := o.Tests
	if tests == nil {
		tests = litmus.Corpus()
	}
	schemes := o.Schemes
	if schemes == nil {
		schemes = persistency.Schemes()
	}
	points := o.Points
	if points <= 0 {
		points = 8
	}
	bounds := o.Bounds

	type pair struct {
		t *litmus.Test
		s persistency.Scheme
	}
	var pairs []pair
	for _, t := range tests {
		for _, s := range schemes {
			pairs = append(pairs, pair{t, s})
		}
	}
	rep := Report{Points: points}
	rep.Pairs = sweep.Map(o.Parallel, len(pairs), func(i int) PairResult {
		return checkPair(pairs[i].t, pairs[i].s, ModelFor(pairs[i].s), points, bounds)
	})
	return rep
}

// checkPair runs the full conformance check for one test × scheme, judged
// against model.
func checkPair(t *litmus.Test, s persistency.Scheme, model axiomatic.Model, points int, bounds crashmc.Bounds) PairResult {
	allowed := axiomatic.Enumerate(t, model)
	relaxed := axiomatic.Enumerate(t, axiomatic.Relaxed)
	strict := model == axiomatic.Strict

	wl := litmus.NewWorkload(t)
	cfg := system.DefaultConfig(s)
	params := workload.Params{Threads: len(t.Threads), OpsPerThread: 1, Seed: 1}
	end := workload.Run(wl, s, cfg, params).Cycles

	// Crash cycles: spread over the makespan, then one safely past
	// completion so the finished image is always a point.
	cycles := make([]engine.Cycle, 0, points)
	for i := 1; i < points; i++ {
		cy := engine.Cycle(1) + end*engine.Cycle(i)/engine.Cycle(points)
		if n := len(cycles); n > 0 && cycles[n-1] == cy {
			continue
		}
		cycles = append(cycles, cy)
	}
	cycles = append(cycles, end+1000)

	res := PairResult{
		Test:         t.Name,
		Scheme:       s,
		Model:        model,
		Points:       len(cycles),
		AllowedCount: len(allowed.Outcomes),
		RelaxedCount: len(relaxed.Outcomes),
		Collapsed:    len(allowed.Outcomes) < len(relaxed.Outcomes),
	}

	mcCfg := crashmc.Config{Workload: wl, Scheme: s, System: cfg, Params: params, Bounds: bounds}
	// The judge records the outcome of every image it is called on and
	// rejects those outside the allowed set. CheckRecord calls it only on
	// images whose verdict its memo does not already hold; a skipped image
	// agrees with a judged one on every variable line that judge read,
	// so it has the same outcome and the deduplicated Operational set is
	// what judging every image gives. The minimizer's probes reach it too;
	// each is a legal survival set whose outcome the enumeration reaches
	// as well, so recording them adds nothing the streamed images do not.
	var outcomes []axiomatic.Outcome
	judge := func(m *memory.Memory) error {
		o := axiomatic.Outcome(wl.ReadOutcome(m))
		outcomes = append(outcomes, o)
		if allowed.Contains(o) {
			return nil
		}
		return divergenceErr(t, s, model, o)
	}
	var base *memory.Memory // one crash image, reused point to point
	workload.WalkCrashPoints(wl, s, cfg, params, cycles, func(_ int, sys *system.System, cy engine.Cycle, finished bool) {
		rec := crashmc.Snapshot(sys, cy, finished, base)
		base = rec.Base
		pt := mcCfg.CheckRecord(rec, judge)
		if strict && pt.DistinctImages != 1 {
			res.MultiImagePoints++
		}
		res.Divergent += pt.ViolatingImages
		if res.Witness == nil {
			res.Witness = pt.Witness
		}
	})

	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Less(outcomes[j]) })
	for i, o := range outcomes {
		if i == 0 || !o.Equal(outcomes[i-1]) {
			res.Operational = append(res.Operational, o)
		}
	}
	return res
}

// divergenceErr is the judge's complaint, and so the witness Err, for an
// out-of-envelope outcome.
func divergenceErr(t *litmus.Test, s persistency.Scheme, m axiomatic.Model, o axiomatic.Outcome) error {
	return fmt.Errorf("litmus %s/%s: outcome {%s} not allowed by the %s model",
		t.Name, s, axiomatic.FormatOutcome(t, o), m)
}

// String renders the conformance matrix, one line per pair.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-8s %8s %9s %8s  %s\n",
		"test", "scheme", "model", "observed", "allowed", "relaxed", "verdict")
	for _, p := range r.Pairs {
		verdict := "ok"
		if !p.Ok() {
			verdict = fmt.Sprintf("DIVERGE (%d outcomes, %d multi-image points)", p.Divergent, p.MultiImagePoints)
		} else if p.Collapsed {
			verdict = "ok (strengthened)"
		}
		fmt.Fprintf(&b, "%-12s %-8s %-8s %8d %9d %8d  %s\n",
			p.Test, p.Scheme, p.Model, len(p.Operational), p.AllowedCount, p.RelaxedCount, verdict)
	}
	return b.String()
}

// Summary is the one-line roll-up for CLIs and CI logs.
func (r Report) Summary() string {
	collapsed, diverged := 0, 0
	for _, p := range r.Pairs {
		if p.Collapsed {
			collapsed++
		}
		if !p.Ok() {
			diverged++
		}
	}
	status := "conformant"
	if diverged > 0 {
		status = fmt.Sprintf("%d pairs DIVERGED", diverged)
	}
	return fmt.Sprintf("litmus conformance: %d pairs × %d points — %s, %d strengthened vs relaxed Px86",
		len(r.Pairs), r.Points, status, collapsed)
}
