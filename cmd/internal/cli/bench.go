package cli

import (
	"encoding/json"
	"sort"

	"bbb/internal/obs"
)

// BenchResult is one benchmark line of a BENCH document.
type BenchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// BenchDoc is a BENCH_<n>.json document: what cmd/benchjson writes from
// `go test -bench` output and cmd/bbbregress judges.
type BenchDoc struct {
	GOOS    string        `json:"goos,omitempty"`
	GOARCH  string        `json:"goarch,omitempty"`
	CPU     string        `json:"cpu,omitempty"`
	Results []BenchResult `json:"results"`
}

// ParseBench decodes a BENCH document and flattens its metric maps into
// the sorted-slice form internal/obs consumes: benchmarks by name (equal
// names keep their document order), each one's metrics by name.
func ParseBench(data []byte, label string) (obs.BenchRun, error) {
	var doc BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return obs.BenchRun{}, err
	}
	run := obs.BenchRun{Label: label}
	for _, r := range doc.Results {
		pt := obs.BenchPoint{Name: r.Name}
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			pt.Metrics = append(pt.Metrics, obs.BenchMetric{Name: name, Value: r.Metrics[name]})
		}
		run.Benches = append(run.Benches, pt)
	}
	sort.SliceStable(run.Benches, func(i, j int) bool { return run.Benches[i].Name < run.Benches[j].Name })
	return run, nil
}

// AppendToLedger appends one kind line carrying det to run runID of the
// ledger in dir, stamped with HostInfo. A torn tail left by an earlier
// writer is repaired first and the new line continues its sequence.
func AppendToLedger(dir, runID, kind string, det any) error {
	ledger, err := obs.Open(dir)
	if err != nil {
		return err
	}
	seqBase := 0
	if prior, err := ledger.ReadIfExists(runID); err != nil {
		return err
	} else if prior != nil {
		if err := ledger.Repair(prior); err != nil {
			return err
		}
		seqBase = len(prior.Lines)
	}
	w, err := ledger.Append(runID, seqBase)
	if err != nil {
		return err
	}
	if err := w.Write(kind, det, HostInfo()); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
