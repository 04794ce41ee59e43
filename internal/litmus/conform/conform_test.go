package conform

import (
	"reflect"
	"strings"
	"testing"

	"bbb/internal/axiomatic"
	"bbb/internal/crashmc"
	"bbb/internal/litmus"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// TestModelFor pins the scheme → model mapping the whole gate rests on.
func TestModelFor(t *testing.T) {
	want := map[persistency.Scheme]axiomatic.Model{
		persistency.PMEM:    axiomatic.Relaxed,
		persistency.BEP:     axiomatic.Epoch,
		persistency.BBB:     axiomatic.Strict,
		persistency.BBBProc: axiomatic.Strict,
		persistency.EADR:    axiomatic.Strict,
		persistency.NVCache: axiomatic.Strict,
	}
	for _, s := range persistency.Schemes() {
		if got := ModelFor(s); got != want[s] {
			t.Errorf("ModelFor(%s) = %s, want %s", s, got, want[s])
		}
	}
}

// TestFullMatrixConformant is the gate itself: every corpus test × scheme
// must have its operational outcome set inside the axiomatic allowed set,
// with the battery schemes collapsed to one image per crash point.
func TestFullMatrixConformant(t *testing.T) {
	rep := Run(Options{Points: 6})
	if len(rep.Pairs) != len(litmus.Corpus())*len(persistency.Schemes()) {
		t.Fatalf("matrix has %d pairs, want corpus × schemes = %d",
			len(rep.Pairs), len(litmus.Corpus())*len(persistency.Schemes()))
	}
	if !rep.Ok() {
		t.Fatalf("conformance gate failed:\n%s", rep.String())
	}
	for _, p := range rep.Pairs {
		if len(p.Operational) == 0 {
			t.Errorf("%s/%s: no operational outcomes observed", p.Test, p.Scheme)
		}
		if p.Model == axiomatic.Strict {
			if p.MultiImagePoints != 0 {
				t.Errorf("%s/%s: %d crash points exposed multiple images under a strict scheme",
					p.Test, p.Scheme, p.MultiImagePoints)
			}
		}
	}
}

// TestStrengtheningReportedNotHidden pins the collapse bookkeeping: bare
// mp under a battery scheme is a strict strengthening of relaxed Px86 and
// must be flagged; mp+fence has equal sets and must not be.
func TestStrengtheningReportedNotHidden(t *testing.T) {
	mp, err := litmus.ByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	mpf, err := litmus.ByName("mp+fence")
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(Options{
		Tests:   []*litmus.Test{mp, mpf},
		Schemes: []persistency.Scheme{persistency.PMEM, persistency.BBB},
		Points:  4,
	})
	byKey := map[string]PairResult{}
	for _, p := range rep.Pairs {
		byKey[p.Test+"/"+p.Scheme.String()] = p
	}
	if !byKey["mp/bbb"].Collapsed {
		t.Error("mp/bbb: strict drops the flag-without-payload outcome; Collapsed must be set")
	}
	if byKey["mp/pmem"].Collapsed {
		t.Error("mp/pmem: relaxed vs relaxed cannot collapse")
	}
	if byKey["mp+fence/bbb"].Collapsed {
		t.Error("mp+fence/bbb: the fence already closes the relaxed set; no strengthening to report")
	}
	if s := rep.String(); !strings.Contains(s, "strengthened") {
		t.Errorf("report must surface the strengthening:\n%s", s)
	}
}

// TestPMEMReachesFullPrefixSetOnFencedMP pins that the operational side
// is not vacuously small: at these points PMEM reaches every allowed
// outcome of mp+fence, so the gate is an equality there, not just ⊆.
func TestPMEMReachesFullPrefixSetOnFencedMP(t *testing.T) {
	mpf, err := litmus.ByName("mp+fence")
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(Options{
		Tests:   []*litmus.Test{mpf},
		Schemes: []persistency.Scheme{persistency.PMEM},
		Points:  6,
	})
	p := rep.Pairs[0]
	if p.AllowedCount != 3 || len(p.Operational) != 3 {
		t.Fatalf("mp+fence/pmem: observed %d of %d allowed outcomes; expected the full prefix set",
			len(p.Operational), p.AllowedCount)
	}
}

// TestParallelWidthDeterminism is the satellite requirement: the report
// is deep-equal at every sweep fan-out width.
func TestParallelWidthDeterminism(t *testing.T) {
	opts := Options{Points: 4, Schemes: []persistency.Scheme{persistency.PMEM, persistency.BBB, persistency.BEP}}
	serial := Run(opts)
	for _, width := range []int{2, 8} {
		po := opts
		po.Parallel = width
		if got := Run(po); !reflect.DeepEqual(serial, got) {
			t.Fatalf("conformance report differs between serial and parallel=%d runs", width)
		}
	}
}

// TestPointsCountsDistinctCrashCycles asks for more crash points than wb
// has makespan cycles: the spread points collapse to one per cycle 1…end,
// plus the point past completion, and PairResult.Points must count those
// rather than echo the request.
func TestPointsCountsDistinctCrashCycles(t *testing.T) {
	wb, err := litmus.ByName("wb")
	if err != nil {
		t.Fatal(err)
	}
	s := persistency.BBB
	params := workload.Params{Threads: len(wb.Threads), OpsPerThread: 1, Seed: 1}
	end := workload.Run(litmus.NewWorkload(wb), s, system.DefaultConfig(s), params).Cycles
	rep := Run(Options{Tests: []*litmus.Test{wb}, Schemes: []persistency.Scheme{s}, Points: int(end) + 8})
	if got, want := rep.Pairs[0].Points, int(end)+1; got != want {
		t.Errorf("wb/bbb makespan %d at %d requested points: Points = %d, want %d distinct", end, rep.Points, got, want)
	}
}

// TestExplainTriagesStaleWitness pins the explain path on a fabricated
// witness whose outcome is inside the allowed set: it must replay cleanly
// and triage as stale rather than claim a divergence.
func TestExplainTriagesStaleWitness(t *testing.T) {
	mp, err := litmus.ByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	wl := litmus.NewWorkload(mp)
	s := persistency.PMEM
	cfg := system.DefaultConfig(s)
	params := workload.Params{Threads: len(mp.Threads), OpsPerThread: 1, Seed: 1}
	end := workload.Run(wl, s, cfg, params).Cycles
	cy := end / 2
	sys, finished := workload.BuildToCrash(wl, s, cfg, params, cy)
	rec := crashmc.Capture(sys, cy, finished)

	mcCfg := crashmc.Config{Workload: wl, Scheme: s, System: cfg, Params: params}
	wit := crashmc.NewWitness(mcCfg, cy, rec, nil, "fabricated: empty survival set")
	ex, err := Explain(wit)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Reproduced {
		t.Fatalf("empty survival set produced an out-of-envelope outcome %s under relaxed Px86", ex.Formatted)
	}
	if !strings.Contains(ex.Note, "stale") {
		t.Errorf("non-reproducing witness should triage as stale, got: %s", ex.Note)
	}
	if ex.Test != "mp" || ex.Scheme != persistency.PMEM || ex.Model != axiomatic.Relaxed {
		t.Errorf("explanation misidentified the pair: %+v", ex)
	}
}

// TestExplainRejectsNonLitmusWitness keeps the two repro tools separate:
// workload witnesses belong to bbbmc -repro.
func TestExplainRejectsNonLitmusWitness(t *testing.T) {
	w := &crashmc.Witness{Workload: "linkedlist", Scheme: "pmem"}
	if _, err := Explain(w); err == nil {
		t.Fatal("Explain accepted a non-litmus witness")
	}
}
