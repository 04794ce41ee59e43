package crashmc

import (
	"reflect"
	"testing"

	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/workload"
)

// captured runs c's workload to crashAt on a fresh machine and captures
// the record there.
func captured(t *testing.T, c Config, crashAt uint64) *Record {
	t.Helper()
	sys, finished := workload.BuildToCrash(c.Workload, c.Scheme, c.System, c.Params, crashAt)
	return Capture(sys, crashAt, finished)
}

// TestStreamZeroAlloc pins the enumerator's steady state: once a scratch
// has streamed a record, streaming it again — line table, survival
// groups, odometer, resolver and dedupe key set — allocates nothing, so
// the thousands of sets of a PMEM point cost no heap traffic beyond what
// the callback makes (here none).
func TestStreamZeroAlloc(t *testing.T) {
	rec := captured(t, mcConfig(workload.NewLinkedList(), persistency.PMEM, true), 16_000)
	var (
		s     scratch
		sets  int
		count int
	)
	pass := func() {
		s.load(rec)
		sets, _ = s.stream(DefaultBounds(), func() { count++ })
	}
	pass()
	if sets < 500 || count < 100 {
		t.Fatalf("record streams %d sets, %d images: too few to pin the per-set path", sets, count)
	}
	if avg := testing.AllocsPerRun(10, pass); avg != 0 {
		t.Fatalf("a warmed-up stream of %d sets allocates %.1f objects, want 0", sets, avg)
	}
}

// TestCheckPointZeroAlloc pins the validator's steady state: once a
// scratch has checked a point, checking it again — line table, line
// pointers, stream, verdict memo, and every image written into the base in
// place, checked and restored — allocates nothing when no image violates.
// The BEP point takes most of its verdicts from the memo. It uses a
// scratch of its own, as the race detector's sync.Pool drops some of what
// it is given.
func TestCheckPointZeroAlloc(t *testing.T) {
	for _, p := range []struct {
		scheme  persistency.Scheme
		crashAt uint64
	}{
		{persistency.PMEM, 32_000}, // two pending lines, four images
		{persistency.BEP, 16_000},
	} {
		c := mcConfig(workload.NewLinkedList(), p.scheme, false)
		rec := captured(t, c, p.crashAt)
		var (
			s      scratch
			res    PointResult
			checks int
		)
		check := func(m *memory.Memory) error { checks++; return c.Workload.Check(m) }
		pass := func() { checks = 0; res = s.checkPoint(c, rec, check) }
		pass()
		if res.DistinctImages < 2 || res.ViolatingImages != 0 {
			t.Fatalf("%v: record checks %d images, %d violating: want at least 2 and none", p.scheme, res.DistinctImages, res.ViolatingImages)
		}
		if p.scheme == persistency.BEP && 2*checks > res.DistinctImages {
			t.Fatalf("%v: %d checks of %d images: the point does not exercise the memo", p.scheme, checks, res.DistinctImages)
		}
		if avg := testing.AllocsPerRun(10, pass); avg != 0 {
			t.Fatalf("%v: a warmed-up checkPoint of %d images (%d checks) allocates %.1f objects, want 0", p.scheme, res.DistinctImages, checks, avg)
		}
	}
}

// TestScratchReuseAcrossRecords streams real records of different shapes
// — a large free group, BEP epoch groups with and without barriers, and
// the empty pending set of a battery scheme — through one scratch in a
// row, twice over, and requires each enumeration to equal one from a
// fresh scratch: the same counts, images in the same order, survivors,
// overlays and hashes. Stale arena, table or key-set state from the
// previous record would show as a difference.
func TestScratchReuseAcrossRecords(t *testing.T) {
	ll := workload.NewLinkedList()
	recs := []*Record{
		captured(t, mcConfig(ll, persistency.PMEM, true), 16_000),
		captured(t, mcConfig(ll, persistency.BEP, false), 10_000),
		captured(t, mcConfig(ll, persistency.BBB, true), 10_000),
		captured(t, mcConfig(ll, persistency.BEP, true), 16_000),
		captured(t, mcConfig(ll, persistency.PMEM, false), 10_000),
	}
	bounds := []Bounds{DefaultBounds(), {ExhaustiveLimit: 4, MaxFlips: 1, MaxImages: 300}}
	var shared scratch
	for pass := 0; pass < 2; pass++ {
		for i, rec := range recs {
			b := bounds[(i+pass)%len(bounds)]
			got, want := shared.enumerate(rec, b), new(scratch).enumerate(rec, b)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, record %d (%v, %d pending): a reused scratch enumerates %d sets, %d skipped, %d images; a fresh one %d, %d, %d (or the images differ)",
					pass, i, rec.Scheme, len(rec.Pending), got.Sets, got.SetsSkipped, len(got.Images), want.Sets, want.SetsSkipped, len(want.Images))
			}
		}
	}
}

// TestKeySetGrowsPastHint streams more distinct images than the key set's
// initial table is sized for (MaxImages above 4096), so it grows mid-point,
// and requires the reference enumerator's result. Every image is reached
// twice, with and without a write of the base bytes, so a key lost in the
// growth shows as an extra image.
func TestKeySetGrowsPastHint(t *testing.T) {
	var pending []PendingWrite
	for i := 0; i < 13; i++ {
		pending = append(pending, freeWrite(i, byte(i+1)))
	}
	rec := testRecord(append(pending, freeWrite(13, 0)))
	b := Bounds{ExhaustiveLimit: 14, MaxImages: 1 << 14}
	got, want := Enumerate(rec, b), refEnumerate(rec, b)
	if len(got.Images) != 1<<13 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d sets, %d images; the reference gives %d and %d (or the images differ)",
			got.Sets, len(got.Images), want.Sets, len(want.Images))
	}
}
