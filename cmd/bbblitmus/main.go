// Command bbblitmus drives the Px86-TSO litmus conformance harness: the
// litmus corpus and its interpreter (internal/litmus), the axiomatic
// allowed-set checker (internal/axiomatic), and the operational-vs-
// declarative conformance gate (internal/litmus/conform).
//
// Usage:
//
//	bbblitmus check                 # every corpus test: threads, doc, allowed outcomes per model
//	bbblitmus check -test mp        # one test
//	bbblitmus conform -points 6     # the gate: operational ⊆ allowed (CI)
//	bbblitmus explain -witness w.json  # triage a divergence witness
//
// conform exits non-zero on any divergence and (with -witness-out) leaves
// a minimized replayable witness; explain replays one and says whether it
// is a simulator bug, a broken scheme strengthening, or stale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"bbb/internal/axiomatic"
	"bbb/internal/crashmc"
	"bbb/internal/litmus"
	"bbb/internal/litmus/conform"
	"bbb/internal/persistency"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbblitmus: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "check":
		os.Exit(check(os.Args[2:]))
	case "conform":
		os.Exit(conformCmd(os.Args[2:]))
	case "explain":
		os.Exit(explain(os.Args[2:]))
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bbblitmus <subcommand> [flags]

  check      describe each litmus test and its axiomatic allowed outcomes per model
  conform    gate operational (crashmc) ⊆ allowed (axiomatic) per test×scheme
  explain    replay a conformance divergence witness and triage it`)
}

func check(args []string) int {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	name := fs.String("test", "", "litmus test to check (default: all)")
	model := fs.String("model", "", "model to enumerate: relaxed, epoch or strict (default: all)")
	fs.Parse(args)

	tests := litmus.Corpus()
	if *name != "" {
		t, err := litmus.ByName(*name)
		if err != nil {
			log.Print(err)
			return 1
		}
		tests = []*litmus.Test{t}
	}
	models := axiomatic.Models()
	if *model != "" {
		models = nil
		for _, m := range axiomatic.Models() {
			if m.String() == *model {
				models = []axiomatic.Model{m}
			}
		}
		if models == nil {
			log.Printf("unknown model %q (want relaxed, epoch or strict)", *model)
			return 1
		}
	}
	for _, t := range tests {
		fmt.Printf("%s: %d threads, vars %s\n  %s\n", t.Name, len(t.Threads), strings.Join(t.Vars, " "), t.Doc)
		for _, m := range models {
			r := axiomatic.Enumerate(t, m)
			outs := make([]string, len(r.Outcomes))
			for i, o := range r.Outcomes {
				outs[i] = "{" + axiomatic.FormatOutcome(t, o) + "}"
			}
			fmt.Printf("  %-7s %2d allowed (%d executions): %s\n", m, len(r.Outcomes), r.Executions, strings.Join(outs, " "))
		}
	}
	return 0
}

func conformCmd(args []string) int {
	fs := flag.NewFlagSet("conform", flag.ExitOnError)
	points := fs.Int("points", 8, "crash points per test×scheme pair")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent pairs (1 = serial; reports are identical either way)")
	testName := fs.String("test", "", "single litmus test (default: full corpus)")
	schemes := fs.String("schemes", "", "comma-separated schemes (default: all)")
	witnessOut := fs.String("witness-out", "", "write the first divergence witness to this file")
	fs.Parse(args)

	opts := conform.Options{Points: *points, Parallel: *parallel}
	if *testName != "" {
		t, err := litmus.ByName(*testName)
		if err != nil {
			log.Print(err)
			return 1
		}
		opts.Tests = []*litmus.Test{t}
	}
	if *schemes != "" {
		for _, name := range strings.Split(*schemes, ",") {
			s, err := persistency.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				log.Print(err)
				return 1
			}
			opts.Schemes = append(opts.Schemes, s)
		}
	}

	rep := conform.Run(opts)
	fmt.Print(rep.String())
	fmt.Println(rep.Summary())
	if rep.Ok() {
		return 0
	}
	if w := rep.FirstWitness(); w != nil {
		data, err := w.MarshalIndent()
		if err != nil {
			log.Print(err)
		} else if *witnessOut != "" {
			if werr := os.WriteFile(*witnessOut, data, 0o644); werr != nil {
				log.Print(werr)
			} else {
				log.Printf("divergence witness written to %s", *witnessOut)
			}
		} else {
			log.Printf("first divergence witness:\n%s", data)
		}
	}
	return 1
}

func explain(args []string) int {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	path := fs.String("witness", "", "witness file written by `bbblitmus conform -witness-out` (required)")
	fs.Parse(args)
	if *path == "" {
		log.Print("explain: -witness is required")
		return 2
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		log.Print(err)
		return 1
	}
	w, err := crashmc.ParseWitness(data)
	if err != nil {
		log.Print(err)
		return 1
	}
	ex, err := conform.Explain(w)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Printf("test:    %s\nscheme:  %s (%s model)\noutcome: {%s}\n", ex.Test, ex.Scheme, ex.Model, ex.Formatted)
	if ex.Reproduced {
		fmt.Println("status:  REPRODUCED — outcome is outside the allowed set")
	} else {
		fmt.Println("status:  not reproduced — outcome is inside the allowed set")
	}
	fmt.Printf("triage:  %s\n", ex.Note)
	if ex.Reproduced {
		return 0 // like bbbmc -repro: exit 0 when the witness reproduces
	}
	return 1
}
