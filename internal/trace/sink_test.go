package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bbb/internal/stats"
)

func sampleEvents() []Event {
	return []Event{
		{Cycle: 10, Kind: KindStoreCommit, Core: 0, Addr: 0x1000, Aux: 7},
		{Cycle: 12, Kind: KindBufAlloc, Core: 0, Addr: 0x1000, Aux: 1},
		{Cycle: 20, Kind: KindStoreCommit, Core: 1, Addr: 0x2040, Aux: 9},
		{Cycle: 25, Kind: KindWPQInsert, Core: -1, Addr: 0x2040, Aux: 3},
		{Cycle: 30, Kind: KindBufForcedDrain, Core: 0, Addr: 0x1000, Aux: 0},
		{Cycle: 44, Kind: KindWPQDrain, Core: -1, Addr: 0x2040, Aux: 2},
	}
}

// collectSink keeps every event it is given, for asserting what a
// recorder forwarded.
type collectSink struct{ events []Event }

func (s *collectSink) Write(e Event) { s.events = append(s.events, e) }
func (s *collectSink) Flush() error  { return nil }

// A recorder without a ring streams every event to its sinks and keeps
// none itself: a streamed run's memory does not grow with its length.
func TestStreamRecorderRetainsNothing(t *testing.T) {
	var r Recorder
	var all collectSink
	r.Attach(&all)
	for i := 0; i < 10000; i++ {
		r.Emit(uint64(i), KindClwb, 0, uint64(i), 0)
	}
	if r.Len() != 0 || r.Events() != nil || r.Emitted != 10000 {
		t.Fatalf("Len=%d Events=%d Emitted=%d", r.Len(), len(r.Events()), r.Emitted)
	}
	if len(all.events) != 10000 || all.events[0].Cycle != 0 || all.events[9999].Cycle != 9999 {
		t.Fatal("stream recorder lost or reordered events")
	}
}

func TestAttachForwardsToAllSinks(t *testing.T) {
	r := New(4) // tiny ring, so retention drops events...
	var all collectSink
	r.Attach(&all)
	for _, e := range sampleEvents() {
		r.Emit(e.Cycle, e.Kind, int(e.Core), e.Addr, e.Aux)
	}
	if r.Len() != 4 {
		t.Fatalf("ring Len = %d, want 4", r.Len())
	}
	if !reflect.DeepEqual(all.events, sampleEvents()) { // ...but attached sinks see all
		t.Fatalf("attached sink missed events: %v", all.events)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	for _, e := range sampleEvents() {
		s.Write(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleEvents()) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, sampleEvents())
	}
}

func TestJSONLDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		s := NewJSONL(&buf)
		for _, e := range sampleEvents() {
			s.Write(e)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("JSONL output not byte-identical across runs")
	}
	first := strings.SplitN(render(), "\n", 2)[0]
	want := `{"cycle":10,"kind":"store-commit","core":0,"addr":"0x1000","aux":7}`
	if first != want {
		t.Fatalf("JSONL line = %s, want %s", first, want)
	}
}

func TestParseJSONLRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"not json":     "hello\n",
		"unknown kind": `{"cycle":1,"kind":"nope","core":0,"addr":"0x0","aux":0}` + "\n",
		"bad addr":     `{"cycle":1,"kind":"clwb","core":0,"addr":"xyz","aux":0}` + "\n",
		"bad core":     `{"cycle":1,"kind":"clwb","core":99999,"addr":"0x0","aux":0}` + "\n",
	} {
		if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := KindNone + 1; k <= KindCrashDrain; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Fatal("ParseKind accepted bogus name")
	}
}

// Satellite regression: Emit must not silently truncate core ids that
// overflow Event's int16 field.
func TestEmitRejectsOutOfRangeCore(t *testing.T) {
	r := New(8)
	r.Emit(1, KindClwb, -1, 0, 0)      // machine-wide: fine
	r.Emit(1, KindClwb, MaxCore, 0, 0) // largest representable: fine
	for _, core := range []int{-2, MaxCore + 1, 40000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("core %d: no panic", core)
				}
			}()
			r.Emit(1, KindClwb, core, 0, 0)
		}()
	}
	// The two valid emissions must be attributed exactly.
	evs := r.Events()
	if len(evs) != 2 || evs[0].Core != -1 || evs[1].Core != MaxCore {
		t.Fatalf("events = %v", evs)
	}
}

func TestFilters(t *testing.T) {
	evs := sampleEvents()
	if got := EventsByKind(evs, KindStoreCommit); len(got) != 2 || got[0].Cycle != 10 || got[1].Cycle != 20 {
		t.Fatalf("EventsByKind = %v", got)
	}
	if got := EventsByCore(evs, 0); len(got) != 3 {
		t.Fatalf("EventsByCore(0) = %v", got)
	}
	if got := EventsByCore(evs, -1); len(got) != 2 {
		t.Fatalf("EventsByCore(-1) = %v", got)
	}
	if got := EventsInRange(evs, 12, 25); len(got) != 3 || got[0].Cycle != 12 || got[2].Cycle != 25 {
		t.Fatalf("EventsInRange = %v", got)
	}
	counts := CountKinds(evs)
	if counts[KindStoreCommit] != 2 || counts[KindWPQDrain] != 1 {
		t.Fatalf("CountKinds = %v", counts)
	}
}

func TestWritePerfettoLoadableJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, sampleEvents(), PerfettoMeta{Process: "test"}); err != nil {
		t.Fatal(err)
	}
	// The envelope must be valid JSON with the trace-event shape Perfetto
	// and chrome://tracing load.
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  *int   `json:"pid"`
			Tid  *int   `json:"tid"`
			Name string `json:"name"`
			Ts   uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, instant, counter int
	for _, e := range doc.TraceEvents {
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("entry missing pid/tid: %+v", e)
		}
		switch e.Ph {
		case "M":
			meta++
		case "i":
			instant++
		case "C":
			counter++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// process_name + machine + core 0 + core 1 metadata; every event as an
	// instant; occupancy/forced-drain/WPQ counters.
	if meta != 4 {
		t.Fatalf("meta entries = %d, want 4", meta)
	}
	if instant != len(sampleEvents()) {
		t.Fatalf("instant entries = %d, want %d", instant, len(sampleEvents()))
	}
	// BufAlloc + ForcedDrain occupancy, ForcedDrain cumulative, 2 WPQ.
	if counter != 5 {
		t.Fatalf("counter entries = %d, want 5", counter)
	}
}

func TestWritePerfettoDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, sampleEvents(), PerfettoMeta{}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("Perfetto export not byte-identical across runs")
	}
}

func TestProvenanceBBBZeroGap(t *testing.T) {
	m := stats.NewMetrics()
	p := NewProvenance(DurableAtBufAlloc, m)
	// Commit then same-cycle bbPB alloc — the exact ordering the
	// coherence layer produces for BBB.
	p.Write(Event{Cycle: 100, Kind: KindStoreCommit, Core: 0, Addr: 0x40})
	p.Write(Event{Cycle: 100, Kind: KindBufAlloc, Core: 0, Addr: 0x40, Aux: 1})
	p.Write(Event{Cycle: 200, Kind: KindStoreCommit, Core: 0, Addr: 0x40})
	p.Write(Event{Cycle: 200, Kind: KindBufCoalesce, Core: 0, Addr: 0x40, Aux: 1})
	if p.Resolved() != 2 || p.Unresolved() != 0 {
		t.Fatalf("resolved=%d unresolved=%d", p.Resolved(), p.Unresolved())
	}
	h := m.Hist("persist.vis_to_dur_gap")
	if h.Count() != 2 || h.Max() != 0 {
		t.Fatalf("gap histogram: %s", h.Summary())
	}
}

func TestProvenancePMEMGapIsWPQBound(t *testing.T) {
	m := stats.NewMetrics()
	p := NewProvenance(DurableAtWPQ, m)
	p.Write(Event{Cycle: 100, Kind: KindStoreCommit, Core: 0, Addr: 0x40})
	p.Write(Event{Cycle: 130, Kind: KindStoreCommit, Core: 1, Addr: 0x40}) // second store, same line
	p.Write(Event{Cycle: 150, Kind: KindBufAlloc, Core: 0, Addr: 0x40})    // wrong point: ignored
	p.Write(Event{Cycle: 400, Kind: KindWPQInsert, Core: -1, Addr: 0x40, Aux: 1})
	if p.Resolved() != 2 || p.Unresolved() != 0 {
		t.Fatalf("resolved=%d unresolved=%d", p.Resolved(), p.Unresolved())
	}
	h := m.Hist("persist.vis_to_dur_gap")
	if h.Count() != 2 || h.Min() != 270 || h.Max() != 300 {
		t.Fatalf("gap histogram: %s", h.Summary())
	}
}

func TestProvenanceAtCommitAndUnresolved(t *testing.T) {
	m := stats.NewMetrics()
	p := NewProvenance(DurableAtCommit, m)
	p.Write(Event{Cycle: 10, Kind: KindStoreCommit, Core: 0, Addr: 0x40})
	if p.Resolved() != 1 || m.Hist("persist.vis_to_dur_gap").Max() != 0 {
		t.Fatal("at-commit store not resolved with zero gap")
	}

	q := NewProvenance(DurableAtWPQ, m)
	q.Write(Event{Cycle: 10, Kind: KindStoreCommit, Core: 0, Addr: 0x80})
	if q.Unresolved() != 1 {
		t.Fatalf("unresolved = %d, want 1", q.Unresolved())
	}
	// A crash-time battery drain persists the pending line.
	q.Write(Event{Cycle: 500, Kind: KindCrashDrain, Core: -1, Addr: 0x80})
	if q.Unresolved() != 0 || q.Resolved() != 1 {
		t.Fatalf("after crash drain: unresolved=%d resolved=%d", q.Unresolved(), q.Resolved())
	}
}

func TestProvenanceNilMetricsOnlyCounts(t *testing.T) {
	p := NewProvenance(DurableAtBufAlloc, nil)
	p.Write(Event{Cycle: 1, Kind: KindStoreCommit, Core: 0, Addr: 0x40})
	p.Write(Event{Cycle: 1, Kind: KindBufAlloc, Core: 0, Addr: 0x40})
	if p.Resolved() != 1 {
		t.Fatal("nil-metrics provenance lost the count")
	}
}

// The disabled-tracing path is on the simulator hot loop; pin it at zero
// allocations alongside the engine-kernel guarantees.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(123, KindStoreCommit, 3, 0x1000, 7)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder Emit allocates %g allocs/op, want 0", allocs)
	}
}

// The enabled ring path must also be allocation-free in steady state —
// tracing a long run must not churn the GC.
func TestRingEmitZeroAllocSteadyState(t *testing.T) {
	r := New(256)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(123, KindStoreCommit, 3, 0x1000, 7)
	})
	if allocs != 0 {
		t.Fatalf("ring Emit allocates %g allocs/op, want 0", allocs)
	}
}

// BenchmarkTraceOverhead contrasts the enabled ring sink against the
// disabled nil recorder — the number the bench-json trail tracks.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var r *Recorder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Emit(uint64(i), KindStoreCommit, 1, 0x1000, 0)
		}
	})
	b.Run("ring", func(b *testing.B) {
		r := New(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Emit(uint64(i), KindStoreCommit, 1, 0x1000, 0)
		}
	})
}
