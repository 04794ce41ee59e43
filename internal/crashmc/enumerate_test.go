package crashmc

import (
	"testing"

	"bbb/internal/memory"
)

// Golden counts pinned by TestGoldenImageCounts (crashmc_test.go); kept
// here next to the enumeration logic that produces them.
const (
	goldenPMEMNoBarrierImages     = 1280
	goldenPMEMNoBarrierViolations = 992
	goldenPMEMBarrierImages       = 4
	goldenBEPBarrierImages        = 448
	// Without epoch barriers every BEP write coalesces into one epoch, so
	// the epoch rule degenerates to free-class enumeration over a pending
	// set the VPB kept larger than PMEM's caches would — the axiomatic
	// Epoch model leans on exactly this enumeration rule.
	goldenBEPNoBarrierImages     = 8448
	goldenBEPNoBarrierViolations = 6659
)

// testRecord builds a synthetic record over a zeroed base image.
func testRecord(pending []PendingWrite) *Record {
	return &Record{
		Base:    memory.New(memory.DefaultLayout()),
		Pending: pending,
	}
}

// resolveImage resolves one survival set into its image through a fresh
// scratch's resolver, independent of any stream. The image carries no Hash.
func resolveImage(rec *Record, survivors []int) Image {
	var s scratch
	s.load(rec)
	s.r.load(survivors)
	return s.r.image()
}

func lineData(b byte) (d [memory.LineSize]byte) {
	d[0] = b
	return
}

func addr(i int) memory.Addr {
	l := memory.DefaultLayout()
	return l.NVMMBase + memory.Addr(i)*memory.LineSize
}

func freeWrite(i int, b byte) PendingWrite {
	return PendingWrite{Addr: addr(i), Data: lineData(b), Class: ClassFree, Core: -1, Seq: i}
}

func TestEnumerateExhaustiveFreeSubsets(t *testing.T) {
	rec := testRecord([]PendingWrite{freeWrite(0, 1), freeWrite(1, 2), freeWrite(2, 3)})
	enum := Enumerate(rec, Bounds{})
	if enum.Sets != 8 {
		t.Fatalf("3 free writes should enumerate 2^3 = 8 sets, got %d", enum.Sets)
	}
	if len(enum.Images) != 8 {
		t.Fatalf("distinct data per line should give 8 distinct images, got %d", len(enum.Images))
	}
	if enum.SetsSkipped != 0 {
		t.Fatalf("nothing should be skipped, got %d", enum.SetsSkipped)
	}
	if len(enum.Images[0].Overlay) != 0 {
		t.Fatal("first image must be the deterministic (empty-overlay) one")
	}
}

func TestEnumerateDedupesEquivalentImages(t *testing.T) {
	// Two pending writes whose data equals the base image (all zero):
	// every subset materializes the same durable state.
	rec := testRecord([]PendingWrite{freeWrite(0, 0), freeWrite(1, 0)})
	enum := Enumerate(rec, Bounds{})
	if enum.Sets != 4 {
		t.Fatalf("want 4 sets, got %d", enum.Sets)
	}
	if len(enum.Images) != 1 {
		t.Fatalf("all-no-op subsets must dedupe to 1 image, got %d", len(enum.Images))
	}
}

func TestEnumerateBoundedPruning(t *testing.T) {
	var pending []PendingWrite
	for i := 0; i < 20; i++ {
		pending = append(pending, freeWrite(i, byte(i+1)))
	}
	rec := testRecord(pending)
	enum := Enumerate(rec, Bounds{ExhaustiveLimit: 4, MaxFlips: 2, MaxImages: 1 << 20})
	// |S| in {0,1,2,18,19,20}: 1+20+190+190+20+1 = 422.
	if enum.Sets != 422 {
		t.Fatalf("bounded enumeration of n=20, k=2 should try 422 sets, got %d", enum.Sets)
	}
	if enum.SetsSkipped != 1<<20-422 {
		t.Fatalf("skipped = %d, want 2^20-422", enum.SetsSkipped)
	}
}

func TestEnumerateMaxImagesCap(t *testing.T) {
	var pending []PendingWrite
	for i := 0; i < 8; i++ {
		pending = append(pending, freeWrite(i, byte(i+1)))
	}
	rec := testRecord(pending)
	enum := Enumerate(rec, Bounds{MaxImages: 10})
	if enum.Sets != 10 {
		t.Fatalf("cap of 10 sets, got %d", enum.Sets)
	}
	if enum.SetsSkipped != 256-10 {
		t.Fatalf("skipped %d, want 246", enum.SetsSkipped)
	}
}

func epochWrite(i, core int, epoch uint64, b byte) PendingWrite {
	return PendingWrite{Addr: addr(i), Data: lineData(b), Class: ClassEpoch, Core: core, Epoch: epoch, Seq: i}
}

func TestEpochSubsetsDownwardClosed(t *testing.T) {
	rec := testRecord([]PendingWrite{
		epochWrite(0, 0, 1, 1),
		epochWrite(1, 0, 1, 2),
		epochWrite(2, 0, 2, 3),
	})
	enum := Enumerate(rec, Bounds{})
	// Legal sets: {}, {0}, {1}, {0,1}, {0,1,2} — epoch 2 needs all of
	// epoch 1.
	if enum.Sets != 5 {
		t.Fatalf("want 5 legal epoch sets, got %d", enum.Sets)
	}
	for _, img := range enum.Images {
		if !legalSet(rec, img.Survivors) {
			t.Fatalf("enumerated illegal set %v", img.Survivors)
		}
	}
}

func TestEpochSubsetsPerCoreIndependent(t *testing.T) {
	rec := testRecord([]PendingWrite{
		epochWrite(0, 0, 1, 1),
		epochWrite(1, 1, 1, 2),
	})
	enum := Enumerate(rec, Bounds{})
	// Each core contributes {}, {entry}: 2*2 = 4 combined sets.
	if enum.Sets != 4 {
		t.Fatalf("want 4 cross-core sets, got %d", enum.Sets)
	}
}

func TestLegalSetRejectsEpochGap(t *testing.T) {
	rec := testRecord([]PendingWrite{
		epochWrite(0, 0, 1, 1),
		epochWrite(1, 0, 2, 2),
	})
	if legalSet(rec, []int{1}) {
		t.Fatal("surviving epoch 2 without epoch 1 must be illegal")
	}
	if !legalSet(rec, []int{0, 1}) {
		t.Fatal("full prefix must be legal")
	}
}

func TestMinimizeShrinksToSingleCulprit(t *testing.T) {
	// Checker fails iff write 2 (the "dangling publish") survives.
	rec := testRecord([]PendingWrite{freeWrite(0, 1), freeWrite(1, 2), freeWrite(2, 3)})
	check := func(set []int) string {
		for _, i := range set {
			if i == 2 {
				return "dangling publish"
			}
		}
		return ""
	}
	min, errStr := minimize(rec, []int{0, 1, 2}, check)
	if len(min) != 1 || min[0] != 2 {
		t.Fatalf("minimize = %v, want [2]", min)
	}
	if errStr != "dangling publish" {
		t.Fatalf("minimized error = %q", errStr)
	}
}

func TestMinimizeKeepsEpochClosure(t *testing.T) {
	// Violation needs write 1 (epoch 2); dropping write 0 (epoch 1)
	// would break downward closure, so both must remain.
	rec := testRecord([]PendingWrite{
		epochWrite(0, 0, 1, 1),
		epochWrite(1, 0, 2, 2),
	})
	check := func(set []int) string {
		for _, i := range set {
			if i == 1 {
				return "boom"
			}
		}
		return ""
	}
	min, _ := minimize(rec, []int{0, 1}, check)
	if len(min) != 2 {
		t.Fatalf("minimize = %v, want both writes (closure)", min)
	}
	if !legalSet(rec, min) {
		t.Fatalf("minimized set %v is illegal", min)
	}
}

func TestMaterializeAppliesSeqOrderPerLine(t *testing.T) {
	// Same line buffered in two epochs: the overlay must carry the
	// younger data when both survive.
	rec := testRecord([]PendingWrite{
		epochWrite(0, 0, 1, 0xAA),
		{Addr: addr(0), Data: lineData(0xBB), Class: ClassEpoch, Core: 0, Epoch: 2, Seq: 1},
	})
	img := resolveImage(rec, []int{0, 1})
	if len(img.Overlay) != 1 {
		t.Fatalf("one line expected, got %d", len(img.Overlay))
	}
	if img.Overlay[0].Data[0] != 0xBB {
		t.Fatalf("overlay byte = %#x, want the younger write 0xBB", img.Overlay[0].Data[0])
	}
}
