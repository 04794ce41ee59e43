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
// A divergence (operational outcome outside the allowed set) is minimized
// with the same greedy shrinker crashmc uses and pinned as a replayable
// crashmc.Witness, so CI failures arrive with a repro: `bbblitmus explain
// -witness <file>` rebuilds the machine and triages it.
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

// maxDivergences caps the divergences recorded per pair; the counts stay
// exact via Divergent.
const maxDivergences = 4

// Divergence is one operational outcome outside the allowed set.
type Divergence struct {
	CrashCycle engine.Cycle
	Outcome    axiomatic.Outcome
	// Formatted is the human-readable outcome ("x=1 y=0").
	Formatted string
	// Witness replays the minimized surviving-write subset that produces
	// an out-of-envelope outcome (`bbblitmus explain`).
	Witness *crashmc.Witness
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
	// Divergent counts operational outcomes outside the allowed set;
	// Divergences holds the first few, minimized and witnessed.
	Divergent   int
	Divergences []Divergence
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
		for _, d := range p.Divergences {
			if d.Witness != nil {
				return d.Witness
			}
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
		return checkPair(pairs[i].t, pairs[i].s, points, bounds)
	})
	return rep
}

// checkPair runs the full conformance check for one test × scheme.
func checkPair(t *litmus.Test, s persistency.Scheme, points int, bounds crashmc.Bounds) PairResult {
	model := ModelFor(s)
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

	mcCfg := crashmc.Config{Workload: wl, Scheme: s, System: cfg, Params: params}
	var outcomes []axiomatic.Outcome
	var base *memory.Memory // one crash image, reused point to point
	workload.WalkCrashPoints(wl, s, cfg, params, cycles, func(_ int, sys *system.System, cy engine.Cycle, finished bool) {
		rec := crashmc.Snapshot(sys, cy, finished, base)
		base = rec.Base
		enum := crashmc.Enumerate(rec, bounds)
		if strict && len(enum.Images) != 1 {
			res.MultiImagePoints++
		}
		for _, img := range enum.Images {
			out := overlayOutcome(rec, wl, img.Overlay)
			outcomes = append(outcomes, out)
			if allowed.Contains(out) {
				continue
			}
			res.Divergent++
			if len(res.Divergences) >= maxDivergences {
				continue
			}
			// Minimize against the axiomatic envelope: shrink the
			// surviving set while its image stays outside the allowed set.
			check := func(set []int) string {
				if o := outcomeOf(rec, wl, set); !allowed.Contains(o) {
					return divergenceErr(t, s, model, o)
				}
				return ""
			}
			minimized, errStr := crashmc.Minimize(rec, img.Survivors, check)
			mo := outcomeOf(rec, wl, minimized)
			res.Divergences = append(res.Divergences, Divergence{
				CrashCycle: cy,
				Outcome:    mo,
				Formatted:  axiomatic.FormatOutcome(t, mo),
				Witness:    crashmc.NewWitness(mcCfg, cy, rec, minimized, errStr),
			})
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

// outcomeOf decodes the durable outcome of one survival set.
func outcomeOf(rec *crashmc.Record, wl *litmus.Workload, set []int) axiomatic.Outcome {
	return overlayOutcome(rec, wl, crashmc.Materialize(rec, set).Overlay)
}

// overlayOutcome decodes the durable outcome of one image overlay on the
// crash base.
func overlayOutcome(rec *crashmc.Record, wl *litmus.Workload, overlay []crashmc.LineWrite) axiomatic.Outcome {
	sc := rec.Base.Clone()
	crashmc.ApplyOverlay(sc, overlay)
	return axiomatic.Outcome(wl.ReadOutcome(sc))
}

// divergenceErr is the witness Err string for an out-of-envelope outcome.
func divergenceErr(t *litmus.Test, s persistency.Scheme, m axiomatic.Model, o axiomatic.Outcome) string {
	return fmt.Sprintf("litmus %s/%s: outcome {%s} not allowed by the %s model",
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
