// Command bbbench regenerates every table and figure of the paper's
// evaluation section (see EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	bbbench                      # everything (slow: full figure sweeps)
//	bbbench -table 7             # one table (1,3,4,5,6,7,8,9,10,11)
//	bbbench -fig 7a              # one figure (7a, 7b, 8)
//	bbbench -ops 400 -threads 8  # workload scale
//	bbbench -scale               # full Table III caches (slower, larger)
//	bbbench -markdown            # paper-vs-measured markdown report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"bbb"
	"bbb/cmd/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbench: ")
	rf := cli.Bench.Register(flag.CommandLine)
	var (
		table    = flag.String("table", "", "regenerate one table: 1,3,4,5,6,7,8,9,10,11")
		fig      = flag.String("fig", "", "regenerate one figure: 7a, 7b, 8")
		entries  = flag.Int("entries", 32, "bbPB entries for the cost tables")
		scale    = flag.Bool("scale", false, "use the full Table III cache sizes (default: proportionally scaled caches)")
		jsonPath = flag.String("json", "", "also write the simulation-backed figure data as JSON to this file")
		markdown = flag.Bool("markdown", false, "instead of the tables, write a self-contained paper-vs-measured markdown report to stdout")
	)
	flag.Parse()

	o := rf.Options()
	if !*scale {
		o.L1Size = 8 * 1024
		o.L2Size = 64 * 1024
	}

	if *markdown {
		if err := writeMarkdown(os.Stdout, o, !*scale); err != nil {
			log.Fatal(err)
		}
		return
	}

	out := os.Stdout
	all := *table == "" && *fig == ""
	sep := func() { fmt.Fprintln(out) }

	var export struct {
		Fig7     *bbb.Fig7Result `json:"fig7,omitempty"`
		ProcSide float64         `json:"procSideWriteRatio,omitempty"`
		Fig8     []bbb.Fig8Point `json:"fig8,omitempty"`
		Table4   []bbb.PStoreRow `json:"table4,omitempty"`
		Schemes  []bbb.SchemeRow `json:"schemeComparison,omitempty"`
	}

	run := func(id string) bool { return all || *table == id }
	runFig := func(id string) bool { return all || *fig == id }

	if run("1") {
		bbb.PrintTable1(out)
		sep()
	}
	if run("3") {
		bbb.PrintTable3(out)
		sep()
	}
	if run("4") {
		fmt.Fprintln(out, "(measuring store mix...)")
		rows := bbb.RunTable4(o)
		bbb.PrintTable4(out, rows)
		export.Table4 = rows
		sep()
	}
	if run("5") {
		bbb.PrintTable5(out)
		sep()
	}
	if run("6") {
		bbb.PrintTable6(out)
		sep()
	}
	if run("7") || run("8") {
		bbb.PrintTable7And8(out, *entries)
		sep()
	}
	if run("9") {
		bbb.PrintTable9(out, *entries)
		sep()
	}
	if run("10") {
		bbb.PrintTable10(out)
		sep()
	}
	if run("11") {
		bbb.PrintTable11(out)
		sep()
	}
	if runFig("7a") || runFig("7b") {
		fmt.Fprintln(out, "(running Figure 7 sweep: 7 workloads x {eADR, BBB-32, BBB-1024}...)")
		f := bbb.RunFig7(o)
		bbb.PrintFig7(out, f)
		ratio := bbb.ProcSideWriteRatio(o)
		fmt.Fprintf(out, "processor-side organization: %.2fx eADR's NVMM writes (paper: ~2.8x)\n", ratio)
		export.Fig7, export.ProcSide = &f, ratio
		sep()
	}
	if runFig("8") {
		fmt.Fprintln(out, "(running Figure 8 sweep: 7 workloads x 11 bbPB sizes...)")
		pts := bbb.RunFig8(o, nil)
		bbb.PrintFig8(out, pts)
		export.Fig8 = pts
		sep()
	}
	if all || *table == "schemes" {
		fmt.Fprintln(out, "(running extended all-schemes comparison with wear tracking...)")
		rows, err := bbb.RunSchemeComparison("hashmap", o)
		if err != nil {
			log.Fatal(err)
		}
		bbb.PrintSchemeComparison(out, rows)
		export.Schemes = rows
		sep()
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(export); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "wrote JSON to %s\n", *jsonPath)
	}
}
