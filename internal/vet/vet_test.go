package vet_test

import (
	"strings"
	"testing"

	"bbb/internal/vet"
	"bbb/internal/vet/cyclelint"
	"bbb/internal/vet/detlint"
	"bbb/internal/vet/locklint"
	"bbb/internal/vet/persistlint"
	"bbb/internal/vet/statlint"
)

// TestMalformedIgnoreReported checks the framework's own escape-hatch
// rule: an ignore directive without a reason is itself a finding.
func TestMalformedIgnoreReported(t *testing.T) {
	noop := &vet.Analyzer{Name: "noop", Run: func(*vet.Pass) error { return nil }}
	diags, err := vet.FixtureDiagnostics(noop, "testdata/ignoremalformed")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if d := diags[0]; d.Analyzer != "bbbvet" || !strings.Contains(d.Message, "malformed ignore directive") {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
}

// TestCrashMCZeroSuppressions pins the crash-image model checker to the
// strictest bar the suite offers: the full analyzer set over
// internal/crashmc must report nothing — not even suppressed findings.
// The enumerator's output feeds golden-count tests and byte-identical
// parallel-fan-out comparisons, so map-order or wall-clock leaks there
// are correctness bugs, and unlike internal/memory it has no excuse for
// an ignore directive.
func TestCrashMCZeroSuppressions(t *testing.T) {
	pkgs, fset, err := vet.Load("", "bbb/internal/crashmc")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*vet.Analyzer{
		locklint.Analyzer, detlint.Analyzer, statlint.Analyzer,
		cyclelint.Analyzer, persistlint.Analyzer,
	}
	diags, err := vet.RunAll(pkgs, fset, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Ignored {
			t.Errorf("crashmc carries a suppression (the package must stay clean without them): %s", d)
		} else {
			t.Errorf("crashmc finding: %s", d)
		}
	}
}

// TestLitmusZeroSuppressions holds the litmus interpreter (and the
// axiomatic checker beside it) to the same bar as crashmc: the full
// analyzer set must report nothing, with zero //bbbvet:ignore directives.
// The interpreter issues every store, flush and fence of every litmus
// test from one loop, so persistlint must judge that loop's branches
// without a false redundancy finding; the corpus's commit-store
// discipline itself is audited by persistlint's testdata/persist/litmus.go.
func TestLitmusZeroSuppressions(t *testing.T) {
	for _, pkg := range []string{"bbb/internal/litmus", "bbb/internal/axiomatic"} {
		pkgs, fset, err := vet.Load("", pkg)
		if err != nil {
			t.Fatal(err)
		}
		analyzers := []*vet.Analyzer{
			locklint.Analyzer, detlint.Analyzer, statlint.Analyzer,
			cyclelint.Analyzer, persistlint.Analyzer,
		}
		diags, err := vet.RunAll(pkgs, fset, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if d.Ignored {
				t.Errorf("%s carries a suppression (the interpreter must stay clean without them): %s", pkg, d)
			} else {
				t.Errorf("%s finding: %s", pkg, d)
			}
		}
	}
}

// TestObsZeroSuppressions holds the campaign observability plane to the
// crashmc bar: the full analyzer set over internal/obs must report
// nothing, with zero //bbbvet:ignore directives. The ledger's run IDs,
// point digests and campaign summaries are what kill-and-resume
// byte-identity is judged against, so a determinism leak there (map-order
// iteration, wall-clock reads) would quietly invalidate every resumed
// campaign — host provenance enters only through the HostInfo/Clock
// parameters cmd-side callers pass in.
func TestObsZeroSuppressions(t *testing.T) {
	pkgs, fset, err := vet.Load("", "bbb/internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*vet.Analyzer{
		locklint.Analyzer, detlint.Analyzer, statlint.Analyzer,
		cyclelint.Analyzer, persistlint.Analyzer,
	}
	diags, err := vet.RunAll(pkgs, fset, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Ignored {
			t.Errorf("internal/obs carries a suppression (the package must stay clean without them): %s", d)
		} else {
			t.Errorf("internal/obs finding: %s", d)
		}
	}
}

// TestLoadModulePackages smoke-tests the hermetic loader against the real
// module: the engine package must load, type-check, and expose its types.
func TestLoadModulePackages(t *testing.T) {
	pkgs, _, err := vet.Load("", "bbb/internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "bbb/internal/engine" || p.Types == nil || p.Types.Scope().Lookup("Engine") == nil {
		t.Fatalf("engine package loaded incompletely: %+v", p.ImportPath)
	}
}
