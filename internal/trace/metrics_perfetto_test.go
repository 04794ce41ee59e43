package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"bbb/internal/stats"
)

func sampleMetrics() *stats.Metrics {
	m := stats.NewMetrics()
	occ, depth := m.LazyGauge("bbpb.occupancy"), m.LazyGauge("wpq.depth")
	occ.Sample(100, 0, 3)
	occ.Sample(200, 0, 5)
	occ.Sample(150, 1, 2)
	depth.Sample(400, -1, 7)
	win := stats.NewWindowed(1000, 500)
	win.Observe(250, 400) // window 0, under SLO
	win.Observe(800, 900) // window 0, over
	win.Observe(1500, 90) // window 1, under
	m.MergeWindowed("kv.lat.win", win)
	return m
}

// TestWriteMetricsPerfettoShape pins the counter-track export: every gauge
// point becomes one counter entry on a per-core track, every window two
// (count and over_slo) stamped at the window's end, all under a named
// process.
func TestWriteMetricsPerfettoShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsPerfetto(&buf, sampleMetrics(), PerfettoMeta{Process: "test"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Ts   uint64 `json:"ts"`
			Args struct {
				Value *float64 `json:"value"`
				Name  string   `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	tracks := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Args.Name != "test" {
				t.Fatalf("process_name = %q, want test", e.Args.Name)
			}
		case "C":
			if e.Args.Value == nil {
				t.Fatalf("counter %q has no value", e.Name)
			}
			tracks[e.Name]++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	want := map[string]int{
		"bbpb.occupancy c0":   2,
		"bbpb.occupancy c1":   1,
		"wpq.depth":           1, // core -1 is the machine-wide track
		"kv.lat.win count":    2,
		"kv.lat.win over_slo": 2,
	}
	for name, n := range want {
		if tracks[name] != n {
			t.Fatalf("track %q has %d entries, want %d (all: %v)", name, tracks[name], n, tracks)
		}
	}
	// Windowed counters stamp at the window end, not its start.
	for _, e := range doc.TraceEvents {
		if e.Name == "kv.lat.win count" && e.Ts != 999 && e.Ts != 1999 {
			t.Fatalf("window counter at ts %d, want a window end (999 or 1999)", e.Ts)
		}
	}
}

func TestWriteMetricsPerfettoDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := WriteMetricsPerfetto(&buf, sampleMetrics(), PerfettoMeta{}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("metrics Perfetto export not byte-identical across runs")
	}
}
