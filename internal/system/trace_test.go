package system

import (
	"bytes"
	"strings"
	"testing"

	"bbb/internal/persistency"
	"bbb/internal/trace"
)

func TestTracingCapturesBBBLifecycle(t *testing.T) {
	cfg := smallConfig(persistency.BBB)
	cfg.TraceCapacity = 1 << 16
	sys := New(cfg)
	sys.Run(mixedPrograms(sys, 150, 80)) // 4x82 lines > the 256-line L2
	rec := sys.Trace()
	if rec == nil {
		t.Fatal("tracing not enabled")
	}
	evs := rec.Events()
	for _, k := range []trace.Kind{
		trace.KindStoreCommit, trace.KindBufAlloc, trace.KindBufCoalesce,
		trace.KindBufDrain, trace.KindWPQInsert, trace.KindLLCEvict,
	} {
		if len(trace.EventsByKind(evs, k)) == 0 {
			t.Errorf("no %v events traced", k)
		}
	}
	// Sanity: traced drains agree with the drain counter.
	if rec.Emitted == 0 {
		t.Fatal("nothing emitted")
	}
	// Every per-core event must carry a core in range; the filter helpers
	// partition the stream without losing machine-wide (core -1) events.
	total := 0
	for core := -1; core < cfg.Cores; core++ {
		total += len(trace.EventsByCore(evs, core))
	}
	if total != len(evs) {
		t.Errorf("per-core partition covers %d of %d events", total, len(evs))
	}
	var b strings.Builder
	rec.Dump(&b)
	if !strings.Contains(b.String(), "pb-drain") {
		t.Fatal("dump missing drain events")
	}
}

func TestTracingOffByDefault(t *testing.T) {
	sys := New(smallConfig(persistency.BBB))
	sys.Run(counterPrograms(sys, 50))
	if sys.Trace() != nil {
		t.Fatal("tracing should be off by default")
	}
}

func TestTracingPMEMShowsClwbFence(t *testing.T) {
	cfg := smallConfig(persistency.PMEM)
	cfg.TraceCapacity = 1 << 14
	sys := New(cfg)
	sys.Run(mixedPrograms(sys, 50, 30))
	counts := trace.CountKinds(sys.Trace().Events())
	if counts[trace.KindClwb] == 0 || counts[trace.KindFence] == 0 {
		t.Fatalf("PMEM trace missing persist instructions: %v", counts)
	}
	if counts[trace.KindBufAlloc] != 0 {
		t.Fatal("PMEM traced persist-buffer events")
	}
}

func TestTracingBEPShowsEpochs(t *testing.T) {
	cfg := smallConfig(persistency.BEP)
	cfg.TraceCapacity = 1 << 14
	sys := New(cfg)
	sys.Run(mixedPrograms(sys, 50, 30))
	counts := trace.CountKinds(sys.Trace().Events())
	if counts[trace.KindEpochMark] == 0 {
		t.Fatalf("BEP trace missing epoch marks: %v", counts)
	}
}

// A sink alone builds a recorder that streams every event and retains
// none, and its stream is the same one a ring-retaining run produces.
func TestTraceSinkAloneStreamsAndRetainsNothing(t *testing.T) {
	stream := func(capacity int) (*System, []byte) {
		var buf bytes.Buffer
		cfg := smallConfig(persistency.BBB)
		cfg.TraceCapacity = capacity
		cfg.TraceSink = trace.NewJSONL(&buf)
		sys := New(cfg)
		sys.Run(mixedPrograms(sys, 50, 30))
		if err := sys.Trace().Flush(); err != nil {
			t.Fatal(err)
		}
		return sys, buf.Bytes()
	}
	sinkOnly, got := stream(0)
	rec := sinkOnly.Trace()
	if rec == nil || rec.Emitted == 0 {
		t.Fatal("a sink without a capacity streamed nothing")
	}
	if rec.Len() != 0 {
		t.Fatalf("sink-only recorder retained %d events, want 0", rec.Len())
	}
	if _, want := stream(1 << 10); !bytes.Equal(got, want) {
		t.Fatalf("sink-only stream (%d bytes) differs from the ring run's (%d bytes)", len(got), len(want))
	}
	if n := bytes.Count(got, []byte("\n")); uint64(n) != rec.Emitted {
		t.Fatalf("stream holds %d lines for %d emitted events", n, rec.Emitted)
	}
}
