// Command bbbregress is the noise-aware gate over the benchmark-regression
// trail: it compares the newest BENCH_<n>.json against the trajectory of
// the older recordings and fails (exit 1) only on regressions the history
// can actually support — the candidate sits outside a median ± K·MADσ band
// on a metric whose history is stable, in the direction that hurts
// (throughput down, ns/op or allocations up). Noisy metrics are reported
// as suspects, never failed, so a machine having a bad day cannot turn the
// gate red.
//
// The comparison logic lives in internal/obs (Compare/Render); this
// command only finds the files and loads them through cmd/internal/cli's
// BENCH parser — map iteration and file discovery stay in cmd where
// detlint permits them.
//
// Usage:
//
//	bbbregress                        # newest BENCH file vs the rest
//	bbbregress -candidate BENCH_3.json
//	bbbregress -all                   # print every verdict, not just moves
//	bbbregress -json > report.json
//	bbbregress -ledger .ledger        # also append the report to a run ledger
//	bbbregress -gate=false            # report only, never exit non-zero
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bbb/cmd/internal/cli"
	"bbb/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbregress: ")
	var (
		dir        = flag.String("dir", ".", "directory holding the BENCH_<n>.json trail")
		candidate  = flag.String("candidate", "", "candidate file to judge (default: the highest-numbered BENCH_<n>.json)")
		gate       = flag.Bool("gate", true, "exit 1 when a stable metric regressed")
		all        = flag.Bool("all", false, "print every verdict, not just the ones that moved")
		jsonOut    = flag.Bool("json", false, "emit the full report as JSON instead of the table")
		minHistory = flag.Int("min-history", 0, "history points required before judging a metric (default 2)")
		k          = flag.Float64("k", 0, "noise-band width in MAD sigmas (default 4)")
		floor      = flag.Float64("floor", 0, "minimum relative threshold as a fraction of the median (default 0.02)")
		stableCoV  = flag.Float64("stable-cov", 0, "maximum relative history deviation for a metric to gate (default 0.10)")
		ledgerDir  = flag.String("ledger", "", "run-ledger directory to append the comparison to (see internal/obs)")
	)
	flag.Parse()

	trail, err := benchTrail(*dir)
	if err != nil {
		log.Fatal(err)
	}
	candPath := *candidate
	if candPath == "" {
		if len(trail) == 0 {
			log.Fatalf("no BENCH_*.json files in %s", *dir)
		}
		candPath = trail[len(trail)-1]
		trail = trail[:len(trail)-1]
	} else {
		abs := func(p string) string {
			a, err := filepath.Abs(p)
			if err != nil {
				return p
			}
			return a
		}
		kept := trail[:0]
		for _, p := range trail {
			if abs(p) != abs(candPath) {
				kept = append(kept, p)
			}
		}
		trail = kept
	}

	cand, err := loadBenchRun(candPath)
	if err != nil {
		log.Fatal(err)
	}
	history := make([]obs.BenchRun, 0, len(trail))
	for _, p := range trail {
		run, err := loadBenchRun(p)
		if err != nil {
			log.Fatal(err)
		}
		history = append(history, run)
	}

	report, err := obs.Compare(history, cand, obs.RegressOptions{
		K: *k, Floor: *floor, StableCoV: *stableCoV, MinHistory: *minHistory,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(report.Render(*all))
	}

	if *ledgerDir != "" {
		if err := appendToLedger(*ledgerDir, report); err != nil {
			log.Fatal(err)
		}
	}

	if *gate && report.Failed() {
		os.Exit(1)
	}
}

// benchTrail lists dir's BENCH_<n>.json files in trajectory order
// (numerically by n, the order `make bench-json` writes them).
func benchTrail(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	type numbered struct {
		path string
		n    int
	}
	var files []numbered
	for _, p := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		n, err := strconv.Atoi(base)
		if err != nil {
			continue // not part of the numbered trail
		}
		files = append(files, numbered{p, n})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.path
	}
	return out, nil
}

// loadBenchRun reads and flattens one BENCH document (cli.ParseBench).
func loadBenchRun(path string) (obs.BenchRun, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return obs.BenchRun{}, err
	}
	run, err := cli.ParseBench(blob, filepath.Base(path))
	if err != nil {
		return obs.BenchRun{}, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}

// appendToLedger records the comparison as a regress line in the run
// ledger, under a run identity derived from the file labels compared. The
// verdict table is the det payload; where it ran is the host stamp.
func appendToLedger(dir string, report *obs.RegressReport) error {
	runID, err := obs.RunID("bbbregress", struct {
		Candidate string   `json:"candidate"`
		History   []string `json:"history"`
	}{report.Candidate, report.History})
	if err != nil {
		return err
	}
	return cli.AppendToLedger(dir, runID, obs.KindRegress, report)
}
