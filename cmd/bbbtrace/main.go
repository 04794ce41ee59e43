// Command bbbtrace filters, summarizes and exports the simulator's
// microarchitectural event traces; bbbsim records them (-trace-out, with
// -crash for a crash with flush-on-fail).
//
// The on-disk format is JSON lines (one event per line, cycle-stamped —
// byte-identical across runs of the same seed); `export` converts a trace
// to the Chrome trace-event JSON that Perfetto (https://ui.perfetto.dev)
// and chrome://tracing load, with per-core instant tracks and counter
// tracks for bbPB occupancy, WPQ depth and forced drains.
//
// Usage:
//
//	bbbsim -workload hashmap -scheme bbb -ops 200 -threads 4 -trace-out trace.jsonl
//	bbbsim -workload hashmap -scheme bbb -ops 200 -threads 4 -crash 20000 -trace-out t.jsonl
//	bbbtrace filter -i trace.jsonl -o drains.jsonl -kind pb-drain
//	bbbtrace filter -i trace.jsonl -core 3 -from 1000 -to 2000
//	bbbtrace summarize -i trace.jsonl -scheme bbb
//	bbbtrace export -i trace.jsonl -o trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"bbb"
	"bbb/internal/stats"
	"bbb/internal/system"
	"bbb/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbtrace: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "filter":
		filter(os.Args[2:])
	case "summarize":
		summarize(os.Args[2:])
	case "export":
		export(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bbbtrace <filter|summarize|export> [flags]
  filter     select events by kind, core and cycle range
  summarize  per-kind counts and the durability-provenance summary
  export     convert to Perfetto / chrome://tracing JSON
run "bbbtrace <subcommand> -h" for flags; record a trace with
bbbsim -trace-out (add -crash N for a crash with flush-on-fail)`)
	os.Exit(2)
}

func readTrace(path string) []trace.Event {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.ParseJSONL(f)
	if err != nil {
		log.Fatal(err)
	}
	return evs
}

// filter narrows a trace by kind, core and cycle range.
func filter(args []string) {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	var (
		in   = fs.String("i", "trace.jsonl", "input JSONL path")
		out  = fs.String("o", "", "output JSONL path (default stdout)")
		kind = fs.String("kind", "", "keep only this event kind (e.g. pb-drain)")
		core = fs.Int("core", -2, "keep only this core (-1 = machine-wide events)")
		from = fs.Uint64("from", 0, "keep events at or after this cycle")
		to   = fs.Uint64("to", ^uint64(0), "keep events at or before this cycle")
	)
	fs.Parse(args)
	evs := readTrace(*in)
	if *kind != "" {
		k, ok := trace.ParseKind(*kind)
		if !ok {
			log.Fatalf("unknown kind %q", *kind)
		}
		evs = trace.EventsByKind(evs, k)
	}
	if *core >= -1 {
		evs = trace.EventsByCore(evs, *core)
	}
	evs = trace.EventsInRange(evs, *from, *to)
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	sink := trace.NewJSONL(w)
	for _, e := range evs {
		sink.Write(e)
	}
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kept %d events\n", len(evs))
}

// summarize prints per-kind counts, the trace's cycle span, and — when a
// scheme is given — replays durability provenance offline over the stream.
func summarize(args []string) {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	var (
		in     = fs.String("i", "trace.jsonl", "input JSONL path")
		scheme = fs.String("scheme", "", "replay durability provenance for this scheme's persist point")
	)
	fs.Parse(args)
	evs := readTrace(*in)
	if len(evs) == 0 {
		fmt.Println("empty trace")
		return
	}
	fmt.Printf("%d events, cycles %d..%d\n", len(evs), evs[0].Cycle, evs[len(evs)-1].Cycle)
	counts := trace.CountKinds(evs)
	for k := trace.KindNone + 1; k <= trace.KindCrashDrain; k++ {
		if counts[k] > 0 {
			fmt.Printf("  %-16s %d\n", k, counts[k])
		}
	}
	if *scheme == "" {
		return
	}
	s, err := bbb.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	m := stats.NewMetrics()
	prov := trace.NewProvenance(system.DurabilityPointFor(s), m)
	for _, e := range evs {
		prov.Write(e)
	}
	fmt.Printf("durability point    %s\n", prov.Point())
	if h := m.Hist("persist.vis_to_dur_gap"); h != nil {
		fmt.Printf("vis->dur gap        %s\n", h.Summary())
	}
	fmt.Printf("resolved stores     %d\n", prov.Resolved())
	fmt.Printf("unresolved stores   %d\n", prov.Unresolved())
}

// export converts a JSONL trace into Perfetto/Chrome trace-event JSON.
func export(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var (
		in      = fs.String("i", "trace.jsonl", "input JSONL path")
		out     = fs.String("o", "trace.json", "output Perfetto JSON path")
		process = fs.String("process", "bbbsim", "process name shown in the Perfetto UI")
	)
	fs.Parse(args)
	evs := readTrace(*in)
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WritePerfetto(f, evs, trace.PerfettoMeta{Process: *process}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d events to %s (load at https://ui.perfetto.dev)\n", len(evs), *out)
}
