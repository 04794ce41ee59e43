// Command bbbvet is the repository's custom static-analysis driver. It
// enforces the persistency-contract and determinism rules the simulator
// relies on but the Go compiler cannot check:
//
//	locklint      lineLock-guarded state touched outside annotated scopes
//	detlint       nondeterminism in simulator packages (wall clock, global
//	              rand, host-environment probes, map-order-dependent loops)
//	statlint      counter names that are read but never incremented (typos)
//	              or incremented but never consumed
//	cyclelint     engine.Cycle values mixed with raw integer variables
//	persistlint   flow-sensitive persist-ordering analysis of simulated
//	              programs: commit stores before their dependees are
//	              durable, redundant flushes/fences/barriers, and programs
//	              that never persist their stores
//	pressurelint  interprocedural persist-pressure bounds: the maximum
//	              number of simultaneously dirty persistence-domain lines
//	              a program can have in flight, reported as static
//	              battery-bound certificates (-pressure-report)
//
// Usage:
//
//	go run ./cmd/bbbvet [-only analyzer] [-json] [-sarif file] [-pressure-report file] ./...
//
// Exit status: 0 when no non-suppressed diagnostic is reported, 1 when
// findings remain, 2 on internal errors (package load failure, unknown
// analyzer, unwritable output). Individual findings are suppressed with
// `//bbbvet:ignore <analyzer> <reason>` (line or /*...*/ block form) on or
// directly above the offending line. With -json, every finding — including
// suppressed ones, marked "ignored":true — is printed as one JSON object
// per line with keys file, line, analyzer, message, ignored (plus "also"
// when several analyzers reported the identical finding; duplicates are
// folded into one line). With -sarif, the same findings are written as a
// SARIF 2.1.0 log ("-" for stdout) for code-scanning upload. With
// -pressure-report, pressurelint's battery-bound certificates for the
// loaded packages are written as JSON ("-" for stdout), each with its
// per-scheme projections and the battery sizing the certified bound
// implies on the Table V platforms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"

	"bbb/internal/energy"
	"bbb/internal/persistency"
	"bbb/internal/vet"
	"bbb/internal/vet/cyclelint"
	"bbb/internal/vet/detlint"
	"bbb/internal/vet/locklint"
	"bbb/internal/vet/persistlint"
	"bbb/internal/vet/pressurelint"
	"bbb/internal/vet/statlint"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is main with its dependencies injected, so the exit-code contract
// is unit-testable: 0 clean, 1 findings, 2 internal error.
func run(stdout, stderr io.Writer, argv []string) int {
	fs := flag.NewFlagSet("bbbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("only", "", "run a single analyzer (locklint, detlint, statlint, cyclelint, persistlint, pressurelint)")
		asJSON   = fs.Bool("json", false, "emit one JSON object per finding (including ignored ones)")
		sarif    = fs.String("sarif", "", "write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
		pressure = fs.String("pressure-report", "", "write pressurelint battery-bound certificates as JSON to this file (\"-\" for stdout)")
		dir      = fs.String("dir", "", "directory to load packages from (default current)")
		threads  = fs.Int("threads", 2, "thread count used for the -pressure-report scheme projections")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bbbvet [-only analyzer] [-json] [-sarif file] [-pressure-report file] [packages]\n\n")
		for _, a := range analyzers() {
			fmt.Fprintf(stderr, "%s\n%s\n\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := analyzers()
	if *only != "" {
		var found []*vet.Analyzer
		for _, a := range selected {
			if a.Name == *only {
				found = append(found, a)
			}
		}
		if len(found) == 0 {
			fmt.Fprintf(stderr, "bbbvet: unknown analyzer %q\n", *only)
			return 2
		}
		selected = found
	}

	pkgs, fset, err := vet.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bbbvet: %v\n", err)
		return 2
	}
	diags, err := vet.RunAll(pkgs, fset, selected)
	if err != nil {
		fmt.Fprintf(stderr, "bbbvet: %v\n", err)
		return 2
	}

	if *sarif != "" {
		if err := writeTo(stdout, *sarif, func(w io.Writer) error {
			return vet.WriteSARIF(w, diags, selected, cwd())
		}); err != nil {
			fmt.Fprintf(stderr, "bbbvet: sarif: %v\n", err)
			return 2
		}
	}
	if *pressure != "" {
		if err := writeTo(stdout, *pressure, func(w io.Writer) error {
			return writePressureReport(w, pkgs, fset, *threads)
		}); err != nil {
			fmt.Fprintf(stderr, "bbbvet: pressure-report: %v\n", err)
			return 2
		}
	}

	failing := 0
	for _, d := range diags {
		if !d.Ignored {
			failing++
		}
	}
	if *asJSON {
		if err := vet.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "bbbvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			if !d.Ignored {
				fmt.Fprintln(stdout, d)
			}
		}
	}
	if failing > 0 {
		return 1
	}
	return 0
}

func analyzers() []*vet.Analyzer {
	return []*vet.Analyzer{
		locklint.Analyzer,
		detlint.Analyzer,
		statlint.Analyzer,
		cyclelint.Analyzer,
		persistlint.Analyzer,
		pressurelint.Analyzer,
	}
}

// writeTo runs emit against stdout when path is "-", else against a
// freshly created file.
func writeTo(stdout io.Writer, path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	return wd
}

// pressureReport is the -pressure-report JSON document: every certificate
// computed over the loaded packages, its projection onto each persistency
// scheme at the default capacities, and — for the battery-backed schemes —
// the battery sizing the certified per-core bound implies.
type pressureReport struct {
	Threads      int                        `json:"threads"`
	Certificates []pressurelint.Certificate `json:"certificates"`
	Bounds       []pressureBoundRow         `json:"bounds"`
}

type pressureBoundRow struct {
	Unit    string                       `json:"unit"`
	Scheme  string                       `json:"scheme"`
	Bound   pressurelint.SchemeBound     `json:"bound"`
	Battery []energy.CertifiedBatteryRow `json:"battery,omitempty"`
}

func writePressureReport(w io.Writer, pkgs []*vet.Package, fset *token.FileSet, threads int) error {
	caps := pressurelint.DefaultCaps()
	model := energy.DefaultCostModel()
	rep := pressureReport{Threads: threads, Certificates: pressurelint.Certificates(pkgs, fset)}
	for _, c := range rep.Certificates {
		for _, s := range persistency.Schemes() {
			scheme := s.String()
			row := pressureBoundRow{Unit: c.Unit, Scheme: scheme, Bound: c.ForScheme(scheme, threads, caps, model.LineBytes)}
			switch s {
			case persistency.BBB, persistency.BBBProc, persistency.BEP:
				row.Battery = energy.CertifiedBatterySizes(model, row.Bound.PerCoreLines, caps.BBPBEntries)
			}
			rep.Bounds = append(rep.Bounds, row)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
