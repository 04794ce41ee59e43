package main

import (
	"strings"
	"testing"

	"bbb"
)

// TestMarkdownTinyScale writes the full report at 2 threads x 60 ops, a
// scale at which the BBB-1024 runs of Figure 7 write no NVMM line; the
// zero write ratio must be reported, not panic the report.
func TestMarkdownTinyScale(t *testing.T) {
	var out strings.Builder
	o := bbb.Options{Threads: 2, OpsPerThread: 60, L1Size: 8 << 10, L2Size: 64 << 10, Parallelism: 2}
	if err := writeMarkdown(&out, o, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Figure 7", "BBB-1024: -100.0 %", "## Figures 2/3"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}
