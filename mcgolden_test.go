package bbb

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const mcReportsGoldenPath = "testdata/crashmc_reports.golden"

// mcGoldenCampaign is one campaign of the bbbmc acceptance matrix.
type mcGoldenCampaign struct {
	workload   string
	scheme     Scheme
	noBarriers bool
}

// mcGoldenMatrix mirrors cmd/bbbmc's gated matrix: every Table IV workload
// under BBB and eADR without barriers, then the linked list under PMEM and
// BEP with and without barriers.
func mcGoldenMatrix() []mcGoldenCampaign {
	var m []mcGoldenCampaign
	for _, w := range Workloads() {
		for _, s := range []Scheme{SchemeBBB, SchemeEADR} {
			m = append(m, mcGoldenCampaign{w, s, true})
		}
	}
	for _, s := range []Scheme{SchemePMEM, SchemeBEP} {
		m = append(m, mcGoldenCampaign{"linkedlist", s, false}, mcGoldenCampaign{"linkedlist", s, true})
	}
	return m
}

// mcGoldenLines runs the matrix with bbbmc's defaults at -points 8 and
// returns one sha256 per campaign over the JSON encoding of the whole
// Report: points, drain reports, violations, minimized survivors and
// witnesses.
func mcGoldenLines(t *testing.T, parallel int) []string {
	o := Options{Threads: 2, OpsPerThread: 150, L1Size: 1024, L2Size: 4096, Parallelism: parallel}
	var lines []string
	for _, c := range mcGoldenMatrix() {
		o.NoBarriers = c.noBarriers
		rep, err := ModelCheck(c.workload, c.scheme, o, 8, 4_000, 8_000, MCBounds{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %s nobarriers=%t %x", c.workload, c.scheme, c.noBarriers, sha256.Sum256(data)))
	}
	return lines
}

// TestCrashMCReportsGolden pins every model-checking report of the bbbmc
// acceptance matrix byte for byte, at several fan-out widths. Regenerate
// with `go test -run TestCrashMCReportsGolden -update .` only for a
// deliberate change to the reachable crash-image space or its validation.
func TestCrashMCReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("18 campaigns at four widths")
	}
	if *updateGolden {
		got := mcGoldenLines(t, 1)
		if err := os.WriteFile(mcReportsGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(mcReportsGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for _, width := range []int{1, 2, 3, 7} {
		got := mcGoldenLines(t, width)
		if len(got) != len(want) {
			t.Fatalf("parallel %d: golden has %d lines, run produced %d", width, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("parallel %d, line %d diverged:\n got: %s\nwant: %s", width, i+1, got[i], want[i])
			}
		}
	}
}
