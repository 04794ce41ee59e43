package pressurelint

import (
	"go/ast"
	"strings"
	"testing"

	"bbb/internal/vet"
)

func TestPressureFixture(t *testing.T) {
	vet.RunFixture(t, Analyzer, "testdata/pressure")
}

// TestCrossPackageFixture pins the package boundary: a program passing its
// Env to another package's storing helper, directly or through a local
// helper, is unbounded under both disciplines, and the finding names the
// callee no summary covers.
func TestCrossPackageFixture(t *testing.T) {
	vet.RunFixture(t, Analyzer, "testdata/crosspkg")
	certs := loadFixtureCerts(t, "testdata/crosspkg")
	for _, unit := range []string{"putElsewhere", "viaLocalHelper"} {
		c, ok := certs[unit]
		if !ok {
			t.Errorf("no certificate for %s", unit)
			continue
		}
		if !c.StrictLines.Unbounded || !c.RelaxedLines.Unbounded {
			t.Errorf("%s: got strict=%s relaxed=%s, want both unbounded", unit, c.StrictLines, c.RelaxedLines)
		}
		if len(c.Findings) == 0 || !strings.Contains(c.Findings[0], "(*bbb/internal/pds.Map).Put") {
			t.Errorf("%s: findings %q do not name the pds.Map.Put callee", unit, c.Findings)
		}
	}
	if len(certs) != 2 {
		t.Errorf("got %d certificates, want 2 (put is a helper)", len(certs))
	}
}

func loadFixtureCerts(t testing.TB, dir string) map[string]Certificate {
	t.Helper()
	pkg, fset, err := vet.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Certificate{}
	for _, c := range Certificates([]*vet.Package{pkg}, fset) {
		out[c.Unit] = c
	}
	return out
}

// TestFixtureCertificates pins the exact bounds of every fixture unit: the
// lattice arithmetic, trip multiplication, widening and footprint rules.
func TestFixtureCertificates(t *testing.T) {
	certs := loadFixtureCerts(t, "testdata/pressure")
	want := map[string][2]Bound{ // unit -> {strict, relaxed}
		"straightLine":      {Fin(2), Fin(2)},
		"boundedDrained":    {Fin(1), Fin(9)},
		"rangePerSlot":      {Fin(5), Fin(5)},
		"rangeInt":          {Fin(4), Fin(4)},
		"allocSpan":         {Fin(4), Fin(4)},
		"volatileExcluded":  {Fin(1), Fin(1)},
		"viaHelper":         {Fin(2), Fin(2)},
		"drainedUnbounded":  {Fin(1), Inf()},
		"unboundedLoop":     {Inf(), Inf()},
		"recursivePressure": {Inf(), Inf()},
		"W":                 {Fin(2), Fin(2)},
	}
	for unit, w := range want {
		c, ok := certs[unit]
		if !ok {
			t.Errorf("no certificate for %s", unit)
			continue
		}
		if c.StrictLines != w[0] || c.RelaxedLines != w[1] {
			t.Errorf("%s: got strict=%s relaxed=%s, want strict=%s relaxed=%s",
				unit, c.StrictLines, c.RelaxedLines, w[0], w[1])
		}
		unbounded := c.StrictLines.Unbounded || c.RelaxedLines.Unbounded
		if unbounded && len(c.Findings) == 0 {
			t.Errorf("%s: unbounded bound with no finding explaining it", unit)
		}
		if !unbounded && c.Witness == "" {
			t.Errorf("%s: finite bound with no witness position", unit)
		}
	}
	for unit := range certs {
		if _, ok := want[unit]; !ok {
			t.Errorf("unexpected certificate unit %s", unit)
		}
	}
}

// TestForScheme pins the projection of a certificate onto each scheme's
// persistence-domain organization, including the ⊤-with-coalescing-cap.
func TestForScheme(t *testing.T) {
	caps := DefaultCaps()
	c := Certificate{Unit: "x", StrictLines: Fin(2), RelaxedLines: Inf()}
	bbb := c.ForScheme("bbb", 4, caps, 64)
	if bbb.PerCoreLines != caps.BBPBEntries {
		t.Errorf("bbb PerCoreLines = %d, want capped %d", bbb.PerCoreLines, caps.BBPBEntries)
	}
	if want := caps.WPQEntries + 4*caps.BBPBEntries; bbb.MaxDirtyLines != want {
		t.Errorf("bbb MaxDirtyLines = %d, want %d", bbb.MaxDirtyLines, want)
	}
	if bbb.MaxDirtyBytes != uint64(bbb.MaxDirtyLines)*64 {
		t.Errorf("bbb MaxDirtyBytes = %d", bbb.MaxDirtyBytes)
	}

	fin := Certificate{Unit: "y", StrictLines: Fin(2), RelaxedLines: Fin(9)}
	if got := fin.ForScheme("bbb", 2, caps, 64).PerCoreLines; got != 9 {
		t.Errorf("finite relaxed bound should survive the cap: got %d, want 9", got)
	}

	pmem := c.ForScheme("pmem", 4, caps, 64)
	if pmem.PerCoreLines != 0 || pmem.MaxDirtyLines != caps.WPQEntries {
		t.Errorf("pmem projection = %+v", pmem)
	}
	if pmem.AtRiskLines != Fin(8) { // threads * strict
		t.Errorf("pmem AtRiskLines = %s, want 8", pmem.AtRiskLines)
	}

	bep := c.ForScheme("bep", 4, caps, 64)
	if bep.PerCoreLines != caps.VPBEntries || bep.AtRiskLines != Fin(4*caps.VPBEntries) {
		t.Errorf("bep projection = %+v", bep)
	}

	for _, s := range []string{"eadr", "nvcache"} {
		sb := c.ForScheme(s, 4, caps, 64)
		if sb.PerCoreLines != 0 || sb.MaxDirtyLines != caps.WPQEntries || !sb.AtRiskLines.IsZero() {
			t.Errorf("%s projection = %+v", s, sb)
		}
	}
}

func TestBoundArithmetic(t *testing.T) {
	if got := Fin(2).Add(Fin(3)); got != Fin(5) {
		t.Errorf("Add = %s", got)
	}
	if got := Fin(2).Add(Inf()); !got.Unbounded {
		t.Errorf("Add with top = %s", got)
	}
	if got := MulTrip(0, false, Fin(0)); !got.IsZero() {
		t.Errorf("unknown trip over zero carry = %s, want 0", got)
	}
	if got := MulTrip(0, false, Fin(1)); !got.Unbounded {
		t.Errorf("unknown trip over nonzero carry = %s, want inf", got)
	}
	if got := MulTrip(5, true, Fin(2)); got != Fin(10) {
		t.Errorf("5 trips of 2 = %s", got)
	}
	if Inf().Cap(32) != 32 || Fin(40).Cap(32) != 32 || Fin(3).Cap(32) != 3 {
		t.Error("Cap widening broken")
	}
}

// TestWorkloadCertificates asserts the repo-level contract: every
// registered workload program gets a certificate, every Table IV workload
// has a finite strict bound, and every unbounded component is explained
// by a finding.
func TestWorkloadCertificates(t *testing.T) {
	pkgs, fset, err := vet.Load("../../..", "./internal/workload")
	if err != nil {
		t.Fatal(err)
	}
	certs := map[string]Certificate{}
	for _, c := range Certificates(pkgs, fset) {
		certs[c.Unit] = c
	}
	// Table IV workloads (workload.Registry) must be strictly bounded.
	for _, unit := range []string{"RTree", "CTree", "Hashmap", "Array"} {
		c, ok := certs[unit]
		if !ok {
			t.Fatalf("no certificate for Table IV workload %s", unit)
		}
		if c.StrictLines.Unbounded {
			t.Errorf("%s: strict bound unexpectedly unbounded: %v", unit, c.Findings)
		}
	}
	for unit, c := range certs {
		if (c.StrictLines.Unbounded || c.RelaxedLines.Unbounded) && len(c.Findings) == 0 {
			t.Errorf("%s: unbounded bound with no finding", unit)
		}
	}
}

// TestRepoClean pins that the analyzer reports nothing on the repository
// itself (no file pins the pmem discipline), with zero suppressions.
func TestRepoClean(t *testing.T) {
	pkgs, fset, err := vet.Load("../../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := vet.Run(pkgs, fset, []*vet.Analyzer{Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func BenchmarkPressureLint(b *testing.B) {
	pkgs, fset, err := vet.Load("../../..", "./internal/workload")
	if err != nil {
		b.Fatal(err)
	}
	funcs := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs++
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Certificates(pkgs, fset); len(got) == 0 {
			b.Fatal("no certificates")
		}
	}
	b.ReportMetric(float64(funcs*b.N)/b.Elapsed().Seconds(), "functions/s")
}
