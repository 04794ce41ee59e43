package workload

import (
	"slices"
	"strings"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/persistency"
	"bbb/internal/system"
)

// testConfig is a scaled-down Table III machine that still exercises
// evictions and buffer pressure.
func testConfig() system.Config {
	cfg := system.DefaultConfig(persistency.BBB)
	cfg.Hierarchy.L1Size = 8 * 1024
	cfg.Hierarchy.L2Size = 64 * 1024
	return cfg
}

func testParams(ops int) Params {
	p := DefaultParams()
	p.Threads = 4
	p.OpsPerThread = ops
	return p
}

func TestRegistryNamesMatchTableIV(t *testing.T) {
	want := []string{"rtree", "ctree", "hashmap", "mutateNC", "mutateC", "swapNC", "swapC"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d workloads, want %d", len(reg), len(want))
	}
	for i, w := range reg {
		if w.Name() != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, w.Name(), want[i])
		}
		if w.Description() == "" {
			t.Fatalf("%s has no description", w.Name())
		}
		if w.PaperPStores() <= 0 {
			t.Fatalf("%s has no Table IV P-store figure", w.Name())
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("rtree"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("linkedlist"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
}

// stubWorkload pins the Register/ByName cache-invalidation contract.
type stubWorkload struct{ Workload }

func (stubWorkload) Name() string { return "test/stub" }

// The ByName factory cache must (a) hand out a fresh instance per lookup —
// the crash-image sweeps mutate the instances they resolve — and (b) pick up
// factories registered after the cache was built.
func TestByNameFactoryCache(t *testing.T) {
	a, err := ByName("linkedlist")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("linkedlist")
	if err != nil {
		t.Fatal(err)
	}
	if a.(*LinkedList) == b.(*LinkedList) {
		t.Fatal("ByName returned the same instance twice; sweeps need fresh state per lookup")
	}
	// Every Registry and Extras name must resolve through the cache.
	for _, w := range append(Registry(), Extras()...) {
		got, err := ByName(w.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != w.Name() {
			t.Fatalf("ByName(%q) resolved %q", w.Name(), got.Name())
		}
	}
	// Registering after a lookup must invalidate the cache.
	Register(func() Workload { return stubWorkload{NewLinkedList()} })
	if _, err := ByName("test/stub"); err != nil {
		t.Fatalf("freshly registered workload not visible: %v", err)
	}
}

// Each workload must run to completion under BBB with zero barriers in the
// code path and leave a consistent durable image after a full drain-free
// finish plus crash-style flush.
func TestWorkloadsRunAndCheckUnderBBB(t *testing.T) {
	for _, w := range append(Registry(), Workload(NewLinkedList())) {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			p := testParams(120)
			sys, progs := Build(w, persistency.BBB, testConfig(), p)
			defer sys.Shutdown()
			res := sys.Run(progs)
			if res.PersistingStores == 0 {
				t.Fatal("no persisting stores recorded")
			}
			// Flush the remaining persistence domain as a crash would and
			// verify the recovery invariants on the image.
			sys.Model.CrashDrain(sys.Cores, sys.Hier, sys.NVMM, sys.Mem)
			if err := w.Check(sys.Mem); err != nil {
				t.Fatal(err)
			}
			if err := sys.Hier.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Under eADR with barriers elided the same completeness must hold.
func TestWorkloadsRunUnderEADR(t *testing.T) {
	for _, w := range Registry()[:3] { // the three structure workloads
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			p := testParams(100)
			sys, progs := Build(w, persistency.EADR, testConfig(), p)
			defer sys.Shutdown()
			sys.Run(progs)
			sys.Model.CrashDrain(sys.Cores, sys.Hier, sys.NVMM, sys.Mem)
			if err := w.Check(sys.Mem); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Under the PMEM baseline with barriers present, a mid-run crash must still
// leave a consistent image (that is what the barriers are for).
func TestPMEMWithBarriersCrashConsistent(t *testing.T) {
	for _, name := range []string{"linkedlist", "hashmap", "ctree"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := testParams(200)
			for _, crashAt := range []uint64{20_000, 60_000, 140_000} {
				sys, _, _ := RunToCrash(w, persistency.PMEM, testConfig(), p, crashAt)
				if err := w.Check(sys.Mem); err != nil {
					t.Fatalf("crash@%d: %v", crashAt, err)
				}
			}
		})
	}
}

// Under BBB with NO barriers, every crash point must still be consistent —
// the paper's core programmability claim.
func TestBBBNoBarriersCrashConsistent(t *testing.T) {
	for _, name := range []string{"linkedlist", "hashmap", "ctree", "rtree"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := testParams(200)
			p.NoBarriers = true
			for _, crashAt := range []uint64{10_000, 35_000, 90_000, 180_000} {
				sys, _, _ := RunToCrash(w, persistency.BBB, testConfig(), p, crashAt)
				if err := w.Check(sys.Mem); err != nil {
					t.Fatalf("crash@%d: %v", crashAt, err)
				}
			}
		})
	}
}

// Under PMEM with NO barriers, some crash point must expose the Figure 2
// bug — if it never does, the baseline is too forgiving and the comparison
// is meaningless.
func TestPMEMNoBarriersEventuallyInconsistent(t *testing.T) {
	w := NewLinkedList()
	p := testParams(300)
	p.NoBarriers = true
	cfg := testConfig()
	// Shrink caches hard so evictions reorder persists aggressively.
	cfg.Hierarchy.L1Size = 1024
	cfg.Hierarchy.L2Size = 4096
	failures := 0
	for crashAt := uint64(5_000); crashAt <= 100_000; crashAt += 5_000 {
		sys, _, _ := RunToCrash(w, persistency.PMEM, cfg, p, crashAt)
		if err := w.Check(sys.Mem); err != nil {
			failures++
			if !strings.Contains(err.Error(), "linkedlist") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		}
	}
	if failures == 0 {
		t.Fatal("PMEM without barriers never produced an inconsistent image across 20 crash points")
	}
	t.Logf("PMEM/no-barriers inconsistent at %d/20 crash points", failures)
}

// The store mix should be in the neighbourhood of Table IV.
func TestPStoreMixRoughlyTableIV(t *testing.T) {
	for _, w := range Registry() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			p := testParams(150)
			res := Run(w, persistency.EADR, testConfig(), p)
			got := 100 * float64(res.PersistingStores) / float64(res.Stores)
			want := w.PaperPStores()
			if got < want/3 || got > want*3 {
				t.Fatalf("%%P-stores = %.1f, paper says %.1f (off by >3x)", got, want)
			}
			t.Logf("%%P-stores = %.1f (paper %.1f)", got, want)
		})
	}
}

func TestDeterministicWorkloadRuns(t *testing.T) {
	w := NewHashmap()
	p := testParams(100)
	a := Run(w, persistency.BBB, testConfig(), p)
	b := Run(w, persistency.BBB, testConfig(), p)
	if a.Cycles != b.Cycles || a.NVMMWrites != b.NVMMWrites {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Cycles, a.NVMMWrites, b.Cycles, b.NVMMWrites)
	}
}

// The conflicting array variants must actually migrate bbPB entries.
func TestConflictingArrayMigratesEntries(t *testing.T) {
	w := NewArray(OpMutate, true)
	p := testParams(300)
	res := Run(w, persistency.BBB, testConfig(), p)
	if res.Counters.Get("bbpb.migrated_out") == 0 {
		t.Fatal("conflicting workload produced no bbPB migrations")
	}
	nc := Run(NewArray(OpMutate, false), persistency.BBB, testConfig(), p)
	if nc.Counters.Get("bbpb.migrated_out") > res.Counters.Get("bbpb.migrated_out") {
		t.Fatal("non-conflicting variant migrated more than conflicting one")
	}
}

// TestWalkCrashPointsRejectsDecreasingCycles pins the walk's input
// contract: a cycle list that steps backwards panics before any machine is
// built (Advance cannot rewind), while repeated cycles are visited in
// order, each at the cycle asked for.
func TestWalkCrashPointsRejectsDecreasingCycles(t *testing.T) {
	w, err := ByName("hashmap")
	if err != nil {
		t.Fatal(err)
	}
	visit := func(_ Workload, _ *system.System, at engine.Cycle, _ bool) engine.Cycle { return at }

	func() {
		defer func() {
			if recover() == nil {
				t.Error("decreasing cycle list did not panic")
			}
		}()
		WalkCrashPoints(w, persistency.BBB, testConfig(), testParams(2), []engine.Cycle{2_000, 1_000}, 1, visit)
	}()

	want := []engine.Cycle{1_000, 1_000, 3_000}
	if got := WalkCrashPoints(w, persistency.BBB, testConfig(), testParams(2), want, 1, visit); !slices.Equal(got, want) {
		t.Errorf("visited %v, want %v", got, want)
	}
	if got := EvenCycles(5, 10, 3); !slices.Equal(got, []engine.Cycle{5, 15, 25}) {
		t.Errorf("EvenCycles(5, 10, 3) = %v", got)
	}
}
