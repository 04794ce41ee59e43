package bbb

import (
	"bytes"
	"encoding/json"
	"testing"

	"bbb/internal/trace"
)

// TestDurabilityGapBBBvsPMEM is the paper's Figure 1 gap made measurable:
// under BBB every store is durable the cycle it becomes visible (the bbPB
// entry is allocated at L1D commit, §III-B), so the visibility→durability
// histogram collapses to zero; under PMEM/ADR the same stores wait for
// cache eviction or an explicit flush to reach the WPQ, so the gap is
// hundreds of cycles at the tail.
//
// The summaries are golden strings: the simulator is deterministic, so any
// drift here is a behaviour change in the pipeline, not noise.
func TestDurabilityGapBBBvsPMEM(t *testing.T) {
	opt := Options{Threads: 4, OpsPerThread: 200}
	golden := []struct {
		scheme     Scheme
		summary    string
		resolved   uint64
		unresolved uint64
	}{
		{SchemeBBB, "bbb vis->dur gap: n=4000 mean=0.0 p50=0 p95=0 p99=0 max=0", 4000, 0},
		// A handful of stores are still cache-resident when the end-of-run
		// fence drains them; the tail (max) is the last dirty line's wait.
		{SchemePMEM, "pmem vis->dur gap: n=3994 mean=189.7 p50=20 p95=449 p99=500 max=235060", 3994, 6},
	}
	for _, g := range golden {
		var buf bytes.Buffer
		o := opt
		o.Trace = &buf
		res, err := Run("hashmap", g.scheme, o)
		if err != nil {
			t.Fatalf("%s: %v", g.scheme, err)
		}
		if got := res.DurabilitySummary(); got != g.summary {
			t.Errorf("%s summary:\n got  %s\n want %s", g.scheme, got, g.summary)
		}
		if got := res.Counters.Get("persist.resolved_stores"); got != g.resolved {
			t.Errorf("%s resolved stores = %d, want %d", g.scheme, got, g.resolved)
		}
		if got := res.Counters.Get("persist.unresolved_stores"); got != g.unresolved {
			t.Errorf("%s unresolved stores = %d, want %d", g.scheme, got, g.unresolved)
		}
		if res.Metrics == nil {
			t.Fatalf("%s: streamed Run left Metrics nil", g.scheme)
		}
		h := res.Metrics.Hist("persist.vis_to_dur_gap")
		if h == nil {
			t.Fatalf("%s: no vis_to_dur_gap histogram", g.scheme)
		}
		switch g.scheme {
		case SchemeBBB:
			if p99 := h.P99(); p99 != 0 {
				t.Errorf("bbb p99 gap = %.0f cycles, want 0 (durable at commit)", p99)
			}
		case SchemePMEM:
			if p99 := h.P99(); p99 < 100 {
				t.Errorf("pmem p99 gap = %.0f cycles, want WPQ-bound (>= 100)", p99)
			}
		}

		// The stream must round-trip: JSONL parses back, and the Perfetto
		// export is valid Chrome trace-event JSON with a non-empty
		// traceEvents array (what ui.perfetto.dev actually loads).
		evs, err := trace.ParseJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ParseJSONL: %v", g.scheme, err)
		}
		if len(evs) == 0 {
			t.Fatalf("%s: streamed trace is empty", g.scheme)
		}
		var pf bytes.Buffer
		if err := trace.WritePerfetto(&pf, evs, trace.PerfettoMeta{Process: "bbbsim"}); err != nil {
			t.Fatalf("%s: WritePerfetto: %v", g.scheme, err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(pf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: Perfetto export is not valid JSON: %v", g.scheme, err)
		}
		if len(doc.TraceEvents) < len(evs) {
			t.Errorf("%s: Perfetto export has %d traceEvents for %d trace events",
				g.scheme, len(doc.TraceEvents), len(evs))
		}
	}
}

// TestStreamedTraceDeterministic: the JSONL stream is byte-identical across
// runs of the same seed — the property bbbtrace's golden workflows and the
// detlint sink rules exist to protect.
func TestStreamedTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		if _, err := Run("ctree", SchemeBBB, Options{Threads: 4, OpsPerThread: 50, Trace: w}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() == 0 {
		t.Fatal("empty trace stream")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different trace streams")
	}
}
