package main

import (
	"fmt"
	"io"
	"time"

	"bbb"
)

// writeMarkdown runs the full evaluation at o's scale and writes a
// self-contained markdown report with paper-vs-measured numbers — a fresh,
// machine-generated EXPERIMENTS.md companion (bbbench -markdown).
func writeMarkdown(w io.Writer, o bbb.Options, scaledCaches bool) error {
	started := time.Now()
	fmt.Fprintf(w, "# BBB reproduction report\n\n")
	fmt.Fprintf(w, "Harness scale: %d threads x %d ops; scaled caches: %v.\n\n", o.Threads, o.OpsPerThread, scaledCaches)

	// --- Table IV ---
	fmt.Fprintf(w, "## Table IV — store mix\n\n")
	fmt.Fprintf(w, "| Workload | measured %%P | paper %%P |\n|---|---|---|\n")
	for _, r := range bbb.RunTable4(o) {
		fmt.Fprintf(w, "| %s | %.1f %% | %.1f %% |\n", r.Workload, r.MeasuredPct, r.PaperPct)
	}

	// --- Figure 7 ---
	fmt.Fprintf(w, "\n## Figure 7 — execution time and NVMM writes vs eADR\n\n")
	f7 := bbb.RunFig7(o)
	fmt.Fprintf(w, "| Workload | exec BBB-32 | exec BBB-1024 | writes BBB-32 | writes BBB-1024 |\n|---|---|---|---|---|\n")
	for _, r := range f7.Rows {
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f | %.3f |\n",
			r.Workload, r.ExecBBB32, r.ExecBBB1024, r.WritesBBB32, r.WritesBBB1024)
	}
	fmt.Fprintf(w, "\nBBB-32 exec overhead: mean %.1f %%, worst %.1f %% (paper ~1 %% / 2.8 %%).\n",
		100*f7.MeanExecOverheadBBB32, 100*f7.WorstExecOverheadBBB32)
	fmt.Fprintf(w, "BBB-32 write overhead: %.1f %% (paper 4.9 %%); BBB-1024: %.1f %% (paper <1 %%).\n",
		100*f7.MeanWriteOverheadBBB32, 100*f7.MeanWriteOverheadBBB1024)
	fmt.Fprintf(w, "Processor-side organization: %.2fx eADR writes (paper ~2.8x).\n",
		bbb.ProcSideWriteRatio(o))

	// --- Figure 8 ---
	fmt.Fprintf(w, "\n## Figure 8 — bbPB size sensitivity (normalized to 1 entry)\n\n")
	fmt.Fprintf(w, "| Entries | rejections | exec time | drains |\n|---|---|---|---|\n")
	for _, p := range bbb.RunFig8(o, nil) {
		fmt.Fprintf(w, "| %d | %.4f | %.4f | %.4f |\n", p.Entries, p.Rejections, p.ExecTime, p.Drains)
	}

	// --- Energy tables ---
	fmt.Fprintf(w, "\n## Tables VII-IX — draining cost model (scale-independent)\n\n")
	fmt.Fprintf(w, "```\n")
	bbb.PrintTable7And8(w, 32)
	fmt.Fprintf(w, "\n")
	bbb.PrintTable9(w, 32)
	fmt.Fprintf(w, "```\n")

	// --- Scheme comparison ---
	fmt.Fprintf(w, "\n## Extended scheme comparison (hashmap, wear-tracked)\n\n")
	rows, err := bbb.RunSchemeComparison("hashmap", o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| Scheme | cycles | NVMM writes | wear max | wear mean |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.2f |\n",
			bbb.SchemeTraits(r.Scheme).Name, r.Cycles, r.NVMMWrites, r.WearMax, r.WearMean)
	}

	// --- Crash matrix: the flush-on-fail image at each crash point ---
	fmt.Fprintf(w, "\n## Figures 2/3 — crash-injection matrix (linked list)\n\n")
	fmt.Fprintf(w, "| Scheme | barriers | crash points | inconsistent |\n|---|---|---|---|\n")
	type cell struct {
		s        bbb.Scheme
		barriers bool
	}
	for _, c := range []cell{
		{bbb.SchemePMEM, true}, {bbb.SchemePMEM, false},
		{bbb.SchemeEADR, false}, {bbb.SchemeBBB, false},
		{bbb.SchemeBEP, true}, {bbb.SchemeBEP, false},
	} {
		oc := o
		oc.Threads = 4
		oc.NoBarriers = !c.barriers
		oc.L1Size, oc.L2Size = 1024, 4096
		rep, err := bbb.ModelCheck("linkedlist", c.s, oc, 12, 5_000, 8_000, bbb.MCBounds{MaxImages: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %v | %d | %d |\n",
			bbb.SchemeTraits(c.s).Name, c.barriers, len(rep.Points), rep.TotalViolating)
	}

	fmt.Fprintf(w, "\n_Generated in %s._\n", time.Since(started).Round(time.Second))
	return nil
}
