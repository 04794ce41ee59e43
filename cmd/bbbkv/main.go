// Command bbbkv drives the multi-client KV service tier
// (internal/kvservice) across persistency schemes and reports the
// service-level numbers the scheme comparison turns on: throughput, the
// request-latency percentiles, and the SLO burn rate (the fraction of
// requests slower than the latency objective). Where bbbsim reports what
// the machine did (cycles, drains, NVMM writes), bbbkv reports what a
// client of the service would feel — the paper's argument lands as a
// tail-latency gap between BBB and the explicit-flush PMEM baseline at the
// same offered load.
//
// The -workload and -scheme flags accept comma-separated lists; the cross
// product fans out over -parallel concurrent simulations (internal/sweep),
// and rows print in (workload, scheme) order regardless of parallelism.
//
// -timeline renders latency over time: per-window p50/p99, SLO violations
// and burn per scheme, from the kv.lat.win windowed series. -perfetto-out
// exports the same series (plus every gauge) as Perfetto counter tracks;
// -trace-out streams the full microarchitectural event trace (single
// workload/scheme combination only, like bbbsim).
//
// Usage:
//
//	bbbkv
//	bbbkv -scheme pmem,bbb -clients 8 -ops 500
//	bbbkv -workload kv/uniform -batch-window 1200
//	bbbkv -scheme pmem,bbb -timeline -slo 15000
//	bbbkv -workload kv -scheme bbb -perfetto-out kv.json
//	bbbkv -workload kv -scheme bbb -trace-out kv-events.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"bbb"
	"bbb/internal/stats"
	"bbb/internal/sweep"
	"bbb/internal/trace"
)

type combo struct {
	workload string
	scheme   bbb.Scheme
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbkv: ")
	var (
		wl          = flag.String("workload", "kv", "service workload (comma-separated list fans out): kv (zipfian keys), kv/uniform")
		scheme      = flag.String("scheme", "pmem,eadr,bbb,bbb-proc,bep,nvcache", "persistency scheme (comma-separated list fans out)")
		clients     = flag.Int("clients", 4, "concurrent service clients (one core each)")
		ops         = flag.Int("ops", 400, "requests per client")
		window      = flag.Int64("batch-window", 0, "request-batching window in cycles (0 = workload default)")
		slo         = flag.Uint64("slo", 0, "latency objective in cycles for SLO burn accounting (0 = workload default, 20000)")
		seed        = flag.Int64("seed", 1, "schedule RNG seed")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations for workload/scheme lists (1 = serial; output is identical either way)")
		verbose     = flag.Bool("verbose", false, "dump every kv.* histogram per run")
		timeline    = flag.Bool("timeline", false, "print the per-window latency-over-time table per run (p50/p99/SLO burn)")
		perfettoOut = flag.String("perfetto-out", "", "write gauge and windowed series as Perfetto counter tracks to this file (single workload/scheme combination)")
		traceOut    = flag.String("trace-out", "", "stream the full event trace as JSON lines to this file (single workload/scheme combination; see cmd/bbbtrace)")
	)
	flag.Parse()

	var combos []combo
	for _, w := range strings.Split(*wl, ",") {
		for _, name := range strings.Split(*scheme, ",") {
			s, err := bbb.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			combos = append(combos, combo{strings.TrimSpace(w), s})
		}
	}

	o := bbb.Options{
		Clients:      *clients,
		OpsPerThread: *ops,
		Seed:         *seed,
		BatchWindow:  bbb.Cycle(*window),
		SLOTarget:    *slo,
	}

	if (*perfettoOut != "" || *traceOut != "") && len(combos) > 1 {
		log.Fatal("-perfetto-out and -trace-out need a single workload/scheme combination")
	}

	type outcome struct {
		res bbb.Result
		err error
	}
	run := func(i int) outcome {
		c := combos[i]
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return outcome{err: err}
			}
			ot := o
			ot.Trace = f
			r, err := bbb.Run(c.workload, c.scheme, ot)
			if err == nil {
				err = f.Close()
			}
			return outcome{r, err}
		}
		r, err := bbb.Run(c.workload, c.scheme, o)
		return outcome{r, err}
	}
	results := sweep.Map(*parallel, len(combos), run)

	fmt.Printf("%d clients x %d requests, batch window %s, seed %d, SLO %s\n\n",
		*clients, *ops, windowLabel(*window), *seed, sloLabel(*slo))
	fmt.Printf("%-12s %-9s %10s %9s %9s %9s %9s %7s %9s %7s\n",
		"workload", "scheme", "cycles", "kreq/s", "lat p50", "lat p95", "lat p99", "batch", "queue p50", "burn%")
	for i, out := range results {
		if out.err != nil {
			log.Fatal(out.err)
		}
		c := combos[i]
		res := out.res
		if res.Metrics == nil || res.Metrics.Hist("kv.lat") == nil {
			log.Fatalf("%s is not a service workload (no kv.lat histogram); bbbkv drives kv and kv/uniform", c.workload)
		}
		lat := res.Metrics.Hist("kv.lat")
		win := res.Metrics.Windowed("kv.lat.win")
		reqs := float64(*clients * *ops)
		// Cycles are 2 GHz (Table III), so kreq/s = reqs / (cycles/2e9) / 1e3.
		kreqs := reqs / (float64(res.Cycles) / 2e9) / 1e3
		burn := 100 * float64(win.OverSLO()) / float64(win.Total().Count())
		fmt.Printf("%-12s %-9s %10d %9.0f %9.0f %9.0f %9.0f %7.1f %9.0f %7.2f\n",
			c.workload, c.scheme, res.Cycles, kreqs,
			lat.P50(), lat.Quantile(0.95), lat.P99(),
			res.Metrics.Hist("kv.batch_size").Mean(),
			res.Metrics.Hist("kv.queue_delay").P50(), burn)
		if *timeline {
			printTimeline(c, win)
		}
		if *verbose {
			fmt.Fprint(os.Stdout, res.Metrics.StringWith(stats.Glossary))
			fmt.Println()
		}
		if *perfettoOut != "" {
			f, err := os.Create(*perfettoOut)
			if err != nil {
				log.Fatal(err)
			}
			err = trace.WriteMetricsPerfetto(f, res.Metrics, trace.PerfettoMeta{
				Process: fmt.Sprintf("bbbkv %s/%s", c.workload, c.scheme),
			})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatal(err)
			}
		}
	}
}

// printTimeline renders latency over time: one row per kv.lat.win window
// with its percentiles, SLO violations, the window burn rate and the
// cumulative burn — the table EXPERIMENTS.md quotes per scheme.
func printTimeline(c combo, win *stats.Windowed) {
	fmt.Printf("\n  %s/%s latency over time (window %d cycles, SLO %d cycles):\n",
		c.workload, c.scheme, win.Width(), win.SLO())
	fmt.Printf("  %12s %7s %9s %9s %9s %7s %9s\n",
		"window start", "reqs", "p50", "p99", "over_slo", "burn%", "cum burn%")
	var cumReqs, cumOver uint64
	for _, snap := range win.Snapshots() {
		cumReqs += snap.Count
		cumOver += snap.Over
		burn, cum := 0.0, 0.0
		if snap.Count > 0 {
			burn = 100 * float64(snap.Over) / float64(snap.Count)
		}
		if cumReqs > 0 {
			cum = 100 * float64(cumOver) / float64(cumReqs)
		}
		fmt.Printf("  %12d %7d %9.0f %9.0f %9d %7.2f %9.2f\n",
			snap.Start, snap.Count, snap.P50, snap.P99, snap.Over, burn, cum)
	}
	fmt.Println()
}

func windowLabel(w int64) string {
	if w == 0 {
		return "default"
	}
	return fmt.Sprintf("%d cycles", w)
}

func sloLabel(s uint64) string {
	if s == 0 {
		return "default"
	}
	return fmt.Sprintf("%d cycles", s)
}
