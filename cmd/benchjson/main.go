// Command benchjson converts `go test -bench` output on stdin into JSON on
// stdout, for the benchmark-regression trail kept in BENCH_<n>.json files
// (see `make bench-json`). Counter names come through verbatim, so custom
// metrics like sim_stores/s and allocs/op are preserved alongside ns/op.
//
// With -ledger the recording is also appended to a run ledger
// (internal/obs) as a bench line: the results are the deterministic
// payload, the machine (hostname, CPU count, wall clock) goes in the host
// stamp, and successive recordings under the same -name accumulate in one
// run file — the provenance trail cmd/bbbregress comparisons sit next to.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson > BENCH_0.json
//	go test -bench . -benchmem ./... | benchjson -ledger .ledger -name nightly > BENCH_1.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"log"
	"os"
	"strconv"
	"strings"

	"bbb/cmd/internal/cli"
	"bbb/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		ledgerDir = flag.String("ledger", "", "run-ledger directory to append the recording to (see internal/obs)")
		name      = flag.String("name", "bench", "run name for the ledger recording; same name = same run file")
	)
	flag.Parse()

	var rep cli.BenchDoc
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if *ledgerDir != "" {
		if err := appendToLedger(*ledgerDir, *name, rep); err != nil {
			log.Fatal(err)
		}
	}
}

// appendToLedger records the parsed results as a bench line in the run
// ledger. The results slice is the deterministic payload; goos/cpu and the
// wall clock — machine facts — ride in the host stamp, mirroring how the
// campaign driver splits its lines.
func appendToLedger(dir, name string, rep cli.BenchDoc) error {
	runID, err := obs.RunID("benchjson", name)
	if err != nil {
		return err
	}
	det := struct {
		Name    string            `json:"name"`
		Results []cli.BenchResult `json:"results"`
	}{name, rep.Results}
	return cli.AppendToLedger(dir, runID, obs.KindBench, det)
}

// parseBench decodes one result line: a name, an iteration count, then
// value/unit pairs. The trailing -GOMAXPROCS suffix is stripped from the
// name so files diff cleanly across machines.
func parseBench(line string) (cli.BenchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return cli.BenchResult{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return cli.BenchResult{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := cli.BenchResult{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}
