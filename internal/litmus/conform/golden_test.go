package conform

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/conform_report.golden")

// TestConformReportGolden pins the conformance report of `make
// litmus-short` (the full matrix at 6 points: the table and the summary
// line) byte for byte. Regenerate with `go test
// ./internal/litmus/conform -run Golden -update`.
func TestConformReportGolden(t *testing.T) {
	rep := Run(Options{Points: 6})
	got := rep.String() + rep.Summary() + "\n"
	golden := filepath.Join("testdata", "conform_report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("conformance report drifted from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
