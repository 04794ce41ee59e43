// Command bbbsim runs workloads under persistency schemes on the simulated
// Table III machine and prints each run's statistics.
//
// The -workload and -scheme flags accept comma-separated lists; the cross
// product fans out across -parallel concurrent simulations and the result
// blocks print in (workload, scheme) order regardless of parallelism.
//
// Usage:
//
//	bbbsim -workload hashmap -scheme bbb -ops 1000
//	bbbsim -workload rtree -scheme pmem -no-barriers
//	bbbsim -workload mutateC -scheme bbb -entries 8 -verbose
//	bbbsim -workload rtree,hashmap -scheme pmem,eadr,bbb -parallel 8
//	bbbsim -workload kv -scheme bbb -threads 2 -trace-out kv.jsonl
//	bbbsim -workload hashmap -scheme bbb -crash 20000 -trace-out crash.jsonl
//
// The run flags are cmd/internal/cli's. -trace and -trace-out need a
// single combination; -crash crashes every run at that cycle with the
// scheme's flush-on-fail, and with -trace-out the stream shows the
// battery's crash-drain events.
//
// Campaign mode runs a checkpointed resumable sweep against a run ledger
// (see internal/obs): every completed point is recorded as it finishes, a
// killed campaign resumes where it stopped, and the final report is
// byte-identical to an uninterrupted run at any -parallel setting.
//
//	bbbsim -campaign frontier -ledger runs/
//	bbbsim -campaign frontier -ledger runs/ -max-points 6   # stop early...
//	bbbsim -campaign frontier -ledger runs/                 # ...and resume
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"bbb"
	"bbb/cmd/internal/cli"
	"bbb/internal/obs"
	"bbb/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbsim: ")
	run := cli.Sim.Register(flag.CommandLine)
	var (
		entries    = flag.Int("entries", 32, "bbPB entries per core")
		threshold  = flag.Float64("threshold", 0.75, "bbPB drain occupancy threshold")
		window     = flag.Int64("batch-window", 0, "service-tier request-batching window in cycles (0 = workload default)")
		verbose    = flag.Bool("verbose", false, "dump all component counters")
		traceN     = flag.Int("trace", 0, "dump the last N microarchitectural events after the run")
		traceOut   = flag.String("trace-out", "", "stream the full event trace as JSON lines to this file (see cmd/bbbtrace)")
		crash      = flag.Uint64("crash", 0, "crash at this cycle with the scheme's flush-on-fail (0 = run to completion)")
		check      = flag.Bool("check", false, "audit coherence and bbPB invariants every 1000 cycles in every run (see internal/invariant)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulations to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile taken after the simulations to this file")

		campaign   = flag.String("campaign", "", "run a ledger-backed resumable campaign instead of single simulations (frontier)")
		ledgerDir  = flag.String("ledger", "", "run-ledger directory for -campaign (required; the checkpoint store)")
		maxPoints  = flag.Int("max-points", 0, "stop the campaign after N fresh points (0 = run to completion); re-run to resume")
		gridEnt    = flag.String("grid-entries", "", "frontier campaign bbPB sizes, comma-separated (default 8,16,32,64)")
		gridThresh = flag.String("grid-thresholds", "", "frontier campaign drain thresholds, comma-separated (default 0.25,0.5,0.75)")
		budgets    = flag.String("budgets-mm3", "", "frontier battery volumes in mm^3, comma-separated (default 1,5,20,100)")
		tech       = flag.String("tech", "supercap", "frontier battery technology: supercap or li-thin")
		platform   = flag.String("platform", "mobile", "frontier drain pricing platform: mobile or server")
	)
	flag.Parse()

	o := run.Options()
	o.BatchWindow = bbb.Cycle(*window)
	if *campaign != "" {
		runCampaign(*campaign, *ledgerDir, o, bbb.FrontierConfig{
			Workload:   run.Workload,
			Entries:    parseList(*gridEnt, strconv.Atoi),
			Thresholds: parseList(*gridThresh, parseFloat),
			BudgetsMM3: parseList(*budgets, parseFloat),
			Tech:       *tech,
			Platform:   *platform,
			MaxPoints:  *maxPoints,
		})
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	combos, err := run.Combos()
	if err != nil {
		log.Fatal(err)
	}
	o.BBPBEntries = *entries
	o.DrainThreshold = *threshold
	o.CrashAt = bbb.Cycle(*crash)
	o.Check = *check
	if *traceN > 0 || *traceOut != "" {
		if len(combos) > 1 {
			log.Fatal("-trace and -trace-out need a single workload/scheme combination")
		}
		if *traceN > 0 && *traceOut != "" {
			log.Fatal("-trace and -trace-out are mutually exclusive")
		}
		c := combos[0]
		var f *os.File
		if *traceOut != "" {
			if f, err = os.Create(*traceOut); err != nil {
				log.Fatal(err)
			}
			o.Trace = f
		} else {
			o.TraceCapacity = *traceN
			o.Trace = os.Stdout
			fmt.Printf("--- last %d microarchitectural events ---\n", *traceN)
		}
		res, err := bbb.Run(c.Workload, c.Scheme, o)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		} else {
			fmt.Println("---")
		}
		if err != nil {
			log.Fatal(err)
		}
		printResult(c, o, res, *verbose)
		return
	}

	results, err := cli.Matrix(combos, run.Parallel, o)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		printResult(combos[i], o, res, *verbose)
	}
}

// runCampaign drives a resumable sweep. The deterministic report goes to
// stdout (two completed runs compare with cmp); progress and resume notes
// go to stderr via log.
func runCampaign(name, ledgerDir string, o bbb.Options, fc bbb.FrontierConfig) {
	if ledgerDir == "" {
		log.Fatal("-campaign needs -ledger (the checkpoint directory)")
	}
	if strings.Contains(fc.Workload, ",") {
		log.Fatal("-campaign sweeps its own grid; give a single -workload")
	}
	if name != "frontier" {
		log.Fatalf("unknown campaign %q (want frontier)", name)
	}
	ledger, err := obs.Open(ledgerDir)
	if err != nil {
		log.Fatal(err)
	}
	fc.Ledger = ledger
	fc.Host = cli.HostInfo()
	fc.Clock = func() int64 { return time.Now().UnixNano() }
	fc.Progress = os.Stderr
	res, err := bbb.RunFrontierCampaign(o, fc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())
}

// parseList parses a comma-separated flag value (nil when empty).
func parseList[T any](s string, parse func(string) (T, error)) []T {
	if s == "" {
		return nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func printResult(c cli.Combo, o bbb.Options, res bbb.Result, verbose bool) {
	fmt.Printf("workload            %s (%d threads x %d ops)\n", c.Workload, o.Threads, o.OpsPerThread)
	fmt.Printf("scheme              %s\n", c.Scheme)
	fmt.Printf("execution cycles    %d (%.3f ms at 2 GHz)\n", res.Cycles, float64(res.Cycles)/2e6)
	fmt.Printf("stores              %d (%d persisting, %.1f%%)\n",
		res.Stores, res.PersistingStores, 100*float64(res.PersistingStores)/float64(res.Stores))
	fmt.Printf("loads               %d\n", res.Loads)
	fmt.Printf("NVMM writes         %d\n", res.NVMMWrites)
	fmt.Printf("bbPB rejections     %d\n", res.Rejections)
	fmt.Printf("bbPB drains         %d (%d forced by LLC inclusion)\n", res.Drains, res.ForcedDrains)
	fmt.Printf("skipped writebacks  %d\n", res.SkippedWritebacks)
	fmt.Printf("SB stall cycles     %d\n", res.StallCycles)
	fmt.Printf("dirty cache lines   %.1f%% (paper assumes 44.9%% for eADR estimates)\n", 100*res.DirtyFraction)
	if res.Metrics != nil {
		fmt.Printf("durability          %s\n", res.DurabilitySummary())
		fmt.Printf("provenance          %d stores resolved durable, %d never observed durable\n",
			res.Counters.Get("persist.resolved_stores"), res.Counters.Get("persist.unresolved_stores"))
	}
	if verbose {
		fmt.Println("\ncomponent counters:")
		fmt.Fprint(os.Stdout, res.Counters.StringWith(stats.Glossary))
		if res.Metrics != nil {
			fmt.Println("\nhistograms and gauges:")
			fmt.Fprint(os.Stdout, res.Metrics.StringWith(stats.Glossary))
		}
	}
}
