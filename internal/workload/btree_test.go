package workload

import (
	"strings"
	"testing"

	"bbb/internal/memory"
	"bbb/internal/persistency"
)

func TestBTreeRunsAndValidates(t *testing.T) {
	w := NewBTree()
	p := testParams(150)
	sys, progs := Build(w, persistency.BBB, testConfig(), p)
	defer sys.Shutdown()
	res := sys.Run(progs)
	if res.PersistingStores == 0 {
		t.Fatal("no persisting stores")
	}
	sys.Model.CrashDrain(sys.Cores, sys.Hier, sys.NVMM, sys.Mem)
	if err := w.Check(sys.Mem); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeCrashConsistentNoBarriersBBB(t *testing.T) {
	w := NewBTree()
	p := testParams(200)
	p.NoBarriers = true
	for _, crashAt := range []uint64{8_000, 40_000, 120_000} {
		sys, _, _ := RunToCrash(w, persistency.BBB, testConfig(), p, crashAt)
		if err := w.Check(sys.Mem); err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
	}
}

func TestBTreeCrashConsistentWithBarriersPMEM(t *testing.T) {
	w := NewBTree()
	p := testParams(200)
	for _, crashAt := range []uint64{20_000, 90_000} {
		sys, _, _ := RunToCrash(w, persistency.PMEM, testConfig(), p, crashAt)
		if err := w.Check(sys.Mem); err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
	}
}

func TestBTreeByName(t *testing.T) {
	if _, err := ByName("btree"); err != nil {
		t.Fatal(err)
	}
	if len(Extras()) != 3 {
		t.Fatalf("Extras = %d, want linkedlist + btree + wal", len(Extras()))
	}
}

func TestBTreeKeysSortedAfterManyInserts(t *testing.T) {
	// Functional depth: inserts far beyond one node force repeated splits
	// and root growth; the checker then validates separators and balance.
	w := NewBTree()
	p := testParams(400)
	p.Threads = 2
	sys, progs := Build(w, persistency.EADR, testConfig(), p)
	defer sys.Shutdown()
	sys.Run(progs)
	sys.Model.CrashDrain(sys.Cores, sys.Hier, sys.NVMM, sys.Mem)
	if err := w.Check(sys.Mem); err != nil {
		t.Fatal(err)
	}
	// The tree must actually have grown multiple levels.
	root := memory.Addr(sys.Mem.Peek64(w.root(0)))
	if sys.Mem.Peek64(root+offBLeaf) == 1 {
		t.Fatal("400 inserts left a single-leaf tree: splits not happening")
	}
}

func TestBTreeCheckerDetectsUnsortedKeys(t *testing.T) {
	w := NewBTree()
	p := testParams(100)
	mem := buildImage(t, w, p)
	root := memory.Addr(mem.Peek64(w.root(0)))
	// Swap two keys in the root to break ordering.
	k0 := mem.Peek64(root + offBKeys)
	k1 := mem.Peek64(root + offBKeys + 8)
	corrupt64(mem, root+offBKeys, k1)
	corrupt64(mem, root+offBKeys+8, k0)
	err := w.Check(mem)
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("unsorted keys not detected: %v", err)
	}
}

func TestBTreeCheckerDetectsUnpersistedShadow(t *testing.T) {
	w := NewBTree()
	p := testParams(100)
	mem := buildImage(t, w, p)
	root := memory.Addr(mem.Peek64(w.root(0)))
	corrupt64(mem, root+offBMagic, 0)
	if err := w.Check(mem); err == nil {
		t.Fatal("zeroed shadow magic not detected")
	}
}
