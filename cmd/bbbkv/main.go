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
// The run flags are cmd/internal/cli's: -threads is the client count (one
// client per core) and -ops the requests per client. The -workload and
// -scheme lists fan out over -parallel concurrent simulations, and rows
// print in (workload, scheme) order regardless of parallelism.
//
// -timeline renders latency over time: per-window p50/p99, SLO violations
// and burn per scheme, from the kv.lat.win windowed series. -perfetto-out
// exports the same series (plus every gauge) as Perfetto counter tracks.
// The full microarchitectural event trace of a service run comes from
// bbbsim: `bbbsim -workload kv -scheme bbb -threads 4 -trace-out f.jsonl`.
//
// Usage:
//
//	bbbkv
//	bbbkv -scheme pmem,bbb -threads 8 -ops 500
//	bbbkv -workload kv/uniform -batch-window 1200
//	bbbkv -scheme pmem,bbb -timeline -slo 15000
//	bbbkv -workload kv -scheme bbb -perfetto-out kv.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"bbb"
	"bbb/cmd/internal/cli"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbkv: ")
	run := cli.KV.Register(flag.CommandLine)
	var (
		window      = flag.Int64("batch-window", 0, "request-batching window in cycles (0 = workload default)")
		slo         = flag.Uint64("slo", 0, "latency objective in cycles for SLO burn accounting (0 = workload default, 20000)")
		verbose     = flag.Bool("verbose", false, "dump every kv.* histogram per run")
		timeline    = flag.Bool("timeline", false, "print the per-window latency-over-time table per run (p50/p99/SLO burn)")
		perfettoOut = flag.String("perfetto-out", "", "write gauge and windowed series as Perfetto counter tracks to this file (single workload/scheme combination)")
	)
	flag.Parse()

	combos, err := run.Combos()
	if err != nil {
		log.Fatal(err)
	}
	if *perfettoOut != "" && len(combos) > 1 {
		log.Fatal("-perfetto-out needs a single workload/scheme combination")
	}
	o := run.Options()
	o.BatchWindow = bbb.Cycle(*window)
	o.SLOTarget = *slo
	results, err := cli.Matrix(combos, run.Parallel, o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d clients x %d requests, batch window %s, seed %d, SLO %s\n\n",
		run.Threads, run.Ops, cyclesLabel(uint64(*window)), run.Seed, cyclesLabel(*slo))
	fmt.Printf("%-12s %-9s %10s %9s %9s %9s %9s %7s %9s %7s\n",
		"workload", "scheme", "cycles", "kreq/s", "lat p50", "lat p95", "lat p99", "batch", "queue p50", "burn%")
	for i, res := range results {
		c := combos[i]
		if res.Metrics == nil || res.Metrics.Hist("kv.lat") == nil {
			log.Fatalf("%s is not a service workload (no kv.lat histogram); bbbkv drives kv and kv/uniform", c.Workload)
		}
		lat := res.Metrics.Hist("kv.lat")
		win := res.Metrics.Windowed("kv.lat.win")
		reqs := float64(run.Threads * run.Ops)
		// Cycles are 2 GHz (Table III), so kreq/s = reqs / (cycles/2e9) / 1e3.
		kreqs := reqs / (float64(res.Cycles) / 2e9) / 1e3
		burn := 100 * float64(win.OverSLO()) / float64(win.Total().Count())
		fmt.Printf("%-12s %-9s %10d %9.0f %9.0f %9.0f %9.0f %7.1f %9.0f %7.2f\n",
			c.Workload, c.Scheme, res.Cycles, kreqs,
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
				Process: fmt.Sprintf("bbbkv %s/%s", c.Workload, c.Scheme),
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
func printTimeline(c cli.Combo, win *stats.Windowed) {
	fmt.Printf("\n  %s/%s latency over time (window %d cycles, SLO %d cycles):\n",
		c.Workload, c.Scheme, win.Width(), win.SLO())
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

func cyclesLabel(c uint64) string {
	if c == 0 {
		return "default"
	}
	return fmt.Sprintf("%d cycles", c)
}
