// Command bbbmc model-checks crash images: where a crash campaign
// (bbb.CrashCampaign) validates the single deterministic flush-on-fail
// image per crash point, bbbmc
// enumerates EVERY durable state a power failure could legally leave
// behind under the scheme's persist-ordering rules (any fence-respecting
// cache subset for PMEM, epoch-prefix-plus-frontier-reorder for BEP, the
// one battery-drained image for eADR/BBB) and runs the recovery checker
// against each. Violations come with a minimized, replayable witness.
//
// Usage:
//
//	bbbmc                                   # the acceptance matrix (gated)
//	bbbmc -workload hashmap -scheme pmem -no-barriers -witness-out w.json
//	bbbmc -repro w.json                     # replay a saved witness
//
// The default matrix exits non-zero unless the paper's claims hold over
// the whole reachable space: battery-complete schemes expose exactly one
// image per crash point with zero violations, barriered PMEM is clean
// across its reachable set, and barrier-free PMEM yields a violating
// image whose minimized witness reproduces in-process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"bbb"
	"bbb/cmd/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbmc: ")
	rf := cli.MC.Register(flag.CommandLine)
	var (
		points     = flag.Int("points", 6, "number of crash points")
		first      = flag.Uint64("first", 4_000, "first crash cycle")
		step       = flag.Uint64("step", 8_000, "cycles between crash points")
		exhaustive = flag.Int("exhaustive", 0, "groups up to this many pending writes enumerate all 2^n subsets (0 = default 10)")
		maxFlips   = flag.Int("maxflips", 0, "larger groups enumerate subsets within this many writes of either extreme (0 = default 2)")
		maxImages  = flag.Int("maximages", 0, "cap on survival sets per crash point, excess counted not silent (0 = default 4096)")
		repro      = flag.String("repro", "", "replay a witness file and exit (0 = reproduced)")
		witnessOut = flag.String("witness-out", "", "write the campaign's first minimized witness to this file")
	)
	flag.Parse()

	if *repro != "" {
		os.Exit(replay(*repro))
	}

	opts := rf.Options()
	// Small caches reorder persists aggressively, growing the pending set
	// the enumerator gets to flip.
	opts.L1Size = 1024
	opts.L2Size = 4096
	bounds := bbb.MCBounds{ExhaustiveLimit: *exhaustive, MaxFlips: *maxFlips, MaxImages: *maxImages}
	run := func(w string, s bbb.Scheme, noBar bool) bbb.MCReport {
		o := opts
		o.NoBarriers = noBar
		rep, err := bbb.ModelCheck(w, s, o, *points, bbb.Cycle(*first), bbb.Cycle(*step), bounds)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	if rf.Workload != "" {
		if rf.Scheme == "" {
			log.Fatal("-workload needs -scheme (or drop both for the acceptance matrix)")
		}
		combos, err := rf.Combos()
		if err != nil {
			log.Fatal(err)
		}
		if len(combos) != 1 {
			log.Fatal("-workload and -scheme name one combination to model-check")
		}
		rep := run(combos[0].Workload, combos[0].Scheme, rf.NoBarriers)
		fmt.Println(rep.String())
		if wit := rep.FirstWitness(); wit != nil {
			fmt.Printf("    first witness @%d: %d survivor(s): %s\n", wit.CrashCycle, len(wit.Survivors), wit.Err)
			if *witnessOut != "" {
				writeWitness(*witnessOut, wit)
			}
		}
		if rep.TotalViolating > 0 {
			os.Exit(1)
		}
		return
	}

	os.Exit(matrix(run, *witnessOut))
}

// matrix runs the gated acceptance campaigns; it returns 1 when any of
// the paper's reachable-space claims fails to hold.
func matrix(run func(string, bbb.Scheme, bool) bbb.MCReport, witnessOut string) int {
	fail := 0
	bad := func(format string, args ...any) {
		fail = 1
		fmt.Printf("    FAIL: "+format+"\n", args...)
	}

	fmt.Println("crash-image model check: battery-complete schemes (Table IV workloads)")
	fmt.Println("claim: the reachable space is ONE image per crash point, zero violations")
	for _, w := range bbb.Workloads() {
		for _, s := range []bbb.Scheme{bbb.SchemeBBB, bbb.SchemeEADR} {
			rep := run(w, s, true) // no barriers: the battery replaces them
			fmt.Println(rep.String())
			if !rep.SingleImage() {
				bad("%s/%s: crash points with more than one reachable image", w, s)
			}
			if rep.TotalViolating != 0 {
				bad("%s/%s: %d violating image(s)", w, s, rep.TotalViolating)
			}
		}
	}

	fmt.Println()
	fmt.Println("crash-image model check: PMEM (Figures 2 and 3 over the whole reachable space)")
	withBar := run("linkedlist", bbb.SchemePMEM, false)
	fmt.Println(withBar.String())
	if withBar.TotalViolating != 0 {
		bad("pmem with barriers: %d violating image(s) — Figure 3 must be crash consistent", withBar.TotalViolating)
	}
	noBar := run("linkedlist", bbb.SchemePMEM, true)
	fmt.Println(noBar.String())
	if noBar.TotalViolating == 0 {
		bad("pmem without barriers: no violating image found — the Figure 2 bug should be reachable")
	} else if wit := noBar.FirstWitness(); wit == nil {
		bad("pmem without barriers: violations but no witness")
	} else {
		fmt.Printf("    first witness @%d: %d survivor(s): %s\n", wit.CrashCycle, len(wit.Survivors), wit.Err)
		out, err := bbb.ReplayWitness(wit)
		switch {
		case err != nil:
			bad("witness replay errored: %v", err)
		case !out.Reproduced:
			bad("witness did not reproduce: replay said %q", out.Err)
		default:
			fmt.Printf("    witness replayed: reproduced (%d pending writes at the crash)\n", out.Pending)
		}
		if witnessOut != "" {
			writeWitness(witnessOut, wit)
		}
	}

	fmt.Println()
	fmt.Println("informational: BEP (volatile epoch-ordered buffers; epoch-prefix images)")
	fmt.Println(run("linkedlist", bbb.SchemeBEP, false).String())
	fmt.Println(run("linkedlist", bbb.SchemeBEP, true).String())

	fmt.Println()
	if fail == 0 {
		fmt.Println("ok: every reachable image respects the paper's claims — batteries collapse")
		fmt.Println("the crash-state space to one image; barriers make PMEM's space consistent.")
	} else {
		fmt.Println("FAIL: a reachable crash image contradicts the paper's claims (see above).")
	}
	return fail
}

// writeWitness saves a minimized witness for bbbmc -repro.
func writeWitness(path string, wit *bbb.MCWitness) {
	if err := cli.WriteWitness(path, wit); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    witness written to %s (replay: bbbmc -repro %s)\n", path, path)
}

// replay loads a witness and re-runs it in a fresh machine.
func replay(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	wit, err := bbb.ParseWitness(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %s: %s/%s crash @%d, %d surviving write(s)\n",
		path, wit.Workload, wit.Scheme, wit.CrashCycle, len(wit.Survivors))
	out, err := bbb.ReplayWitness(wit)
	if err != nil {
		log.Fatal(err)
	}
	if !out.Reproduced {
		fmt.Printf("NOT reproduced: checker said %q, witness recorded %q\n", out.Err, wit.Err)
		return 1
	}
	fmt.Printf("reproduced: %s\n", out.Err)
	return 0
}
