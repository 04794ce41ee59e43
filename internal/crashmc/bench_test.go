package crashmc

import (
	"slices"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// BenchmarkCrashMCEnumerate measures enumeration throughput over a real
// captured pending set (PMEM, no barriers — the largest reachable space
// of the acceptance matrix). `make bench-json` records images/s in the
// BENCH_<n>.json trail.
func BenchmarkCrashMCEnumerate(b *testing.B) {
	c := mcConfig(workload.NewLinkedList(), persistency.PMEM, true)
	const crashAt = 16_000
	sys, finished := workload.BuildToCrash(c.Workload, c.Scheme, c.System, c.Params, crashAt)
	rec := Capture(sys, crashAt, finished)
	if len(rec.Pending) == 0 {
		b.Fatal("no pending writes captured; the benchmark would enumerate nothing")
	}
	bounds := DefaultBounds()
	images := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enum := Enumerate(rec, bounds)
		images += len(enum.Images)
	}
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkCrashMCCampaign measures a whole model-checking campaign — the
// machine walk, live snapshots, enumeration and recovery-check
// validation, serially — over the Figures 2/3 linked list under BEP without
// barriers at 40 crash points spread over the run (it finishes near cycle
// 56k). `make bench-json` records images/s (distinct images validated per
// second) in the BENCH_<n>.json trail.
func BenchmarkCrashMCCampaign(b *testing.B) {
	c := mcConfig(workload.NewLinkedList(), persistency.BEP, true)
	c.Points = 40
	c.Step = 1_300
	images := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		images += c.Run().TotalDistinct
	}
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkValidateImage measures the validator's per-image cost on a
// captured barrier-free PMEM linked-list record: writing an image into the
// base in place, the recovery check, and the restore. The images' overlays
// are resolved before the timer starts, so enumeration is not counted; it
// reports ns/image.
func BenchmarkValidateImage(b *testing.B) {
	c := mcConfig(workload.NewLinkedList(), persistency.PMEM, true)
	const crashAt = 16_000
	sys, finished := workload.BuildToCrash(c.Workload, c.Scheme, c.System, c.Params, crashAt)
	rec := Capture(sys, crashAt, finished)
	var s scratch
	s.load(rec)
	s.bindLines()
	var hits [][]int32
	s.stream(DefaultBounds(), func() { hits = append(hits, slices.Clone(s.r.resolve())) })
	if len(hits) < 2 {
		b.Fatalf("record streams %d images; the benchmark would validate too few", len(hits))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range hits {
			s.apply(h)
			_ = c.Workload.Check(rec.Base)
			s.restore(h)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hits)), "ns/image")
}

// BenchmarkCheckRecord measures the one validation path, CheckRecord, on a
// captured barrier-free BEP linked-list record, whose checker reads two or
// three of the point's pending lines: enumeration, the verdict memo, and
// the checks the memo cannot answer. It reports the images judged and the
// checks run per call, so `make bench-json` puts the memo's hit rate on
// the BENCH_<n>.json trail, and ns/image, the cost of one image with its
// share of the enumeration and the checks.
func BenchmarkCheckRecord(b *testing.B) {
	c := mcConfig(workload.NewLinkedList(), persistency.BEP, true)
	const crashAt = 10_000
	sys, finished := workload.BuildToCrash(c.Workload, c.Scheme, c.System, c.Params, crashAt)
	rec := Capture(sys, crashAt, finished)
	checks, images := 0, 0
	check := func(m *memory.Memory) error { checks++; return c.Workload.Check(m) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		images += c.CheckRecord(rec, check).DistinctImages
	}
	b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
	b.ReportMetric(float64(images)/float64(b.N), "images/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(images), "ns/image")
}

// BenchmarkCrashWalk measures the walker's share of BenchmarkCrashMCCampaign:
// one machine advanced through the same 40 crash points with a live
// Snapshot into one reused image at each, and no checks. It is the serial
// term W of the pipelined campaign's budget max(W, (W+C)/Parallel), C being
// the checks; it reports ns/point.
func BenchmarkCrashWalk(b *testing.B) {
	c := mcConfig(workload.NewLinkedList(), persistency.BEP, true)
	c.Points = 40
	c.Step = 1_300
	cycles := workload.EvenCycles(c.FirstCrash, c.Step, c.Points)
	var base *memory.Memory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.WalkCrashPoints(c.Workload, c.Scheme, c.System, c.Params, cycles,
			func(_ int, sys *system.System, at engine.Cycle, finished bool) {
				base = Snapshot(sys, at, finished, base).Base
			})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Points), "ns/point")
}
