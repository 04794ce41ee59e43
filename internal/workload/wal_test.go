package workload

import (
	"strings"
	"testing"

	"bbb/internal/memory"
	"bbb/internal/persistency"
)

func TestWALRunsAndValidates(t *testing.T) {
	w := NewWAL()
	p := testParams(200)
	sys, progs := Build(w, persistency.BBB, testConfig(), p)
	defer sys.Shutdown()
	sys.Run(progs)
	sys.Model.CrashDrain(sys.Cores, sys.Hier, sys.NVMM, sys.Mem)
	if err := w.Check(sys.Mem); err != nil {
		t.Fatal(err)
	}
	// Full run: every tail reaches capacity.
	for i := 0; i < p.Threads; i++ {
		if tail := sys.Mem.Peek64(w.header(i)); tail != uint64(p.OpsPerThread) {
			t.Fatalf("thread %d tail = %d, want %d", i, tail, p.OpsPerThread)
		}
	}
}

func TestWALCrashConsistentBBBNoBarriers(t *testing.T) {
	w := NewWAL()
	p := testParams(300)
	p.NoBarriers = true
	for _, crashAt := range []uint64{6_000, 25_000, 80_000} {
		sys, _, _ := RunToCrash(w, persistency.BBB, testConfig(), p, crashAt)
		if err := w.Check(sys.Mem); err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
	}
}

func TestWALPMEMNoBarriersTearsRecords(t *testing.T) {
	w := NewWAL()
	p := testParams(400)
	p.NoBarriers = true
	cfg := testConfig()
	cfg.Hierarchy.L1Size = 1024
	cfg.Hierarchy.L2Size = 4096
	failures := 0
	for crashAt := uint64(4_000); crashAt <= 80_000; crashAt += 4_000 {
		sys, _, _ := RunToCrash(w, persistency.PMEM, cfg, p, crashAt)
		if err := w.Check(sys.Mem); err != nil {
			failures++
			if !strings.Contains(err.Error(), "wal[") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		}
	}
	if failures == 0 {
		t.Fatal("PMEM without barriers never tore a published record")
	}
	t.Logf("WAL under PMEM/no-barriers: %d/20 crash points inconsistent", failures)
}

func TestWALPMEMWithBarriersConsistent(t *testing.T) {
	w := NewWAL()
	p := testParams(300)
	for _, crashAt := range []uint64{10_000, 50_000} {
		sys, _, _ := RunToCrash(w, persistency.PMEM, testConfig(), p, crashAt)
		if err := w.Check(sys.Mem); err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
	}
}

func TestWALCheckerDetectsTornRecord(t *testing.T) {
	w := NewWAL()
	p := testParams(100)
	mem := buildImage(t, w, p)
	// Corrupt a published record's payload.
	corrupt64(mem, w.record(0, 3)+offWALBody, 0xBAD)
	err := w.Check(mem)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("torn record not detected: %v", err)
	}
}

func TestWALCheckerDetectsPrematureTail(t *testing.T) {
	w := NewWAL()
	p := testParams(100)
	mem := buildImage(t, w, p)
	// Publish one record past the real end: its seq is zero.
	corrupt64(mem, w.header(2), uint64(p.OpsPerThread+1))
	err := w.Check(mem)
	if err == nil {
		t.Fatal("premature tail not detected")
	}
	_ = memory.LineSize
}

func TestWALByName(t *testing.T) {
	if _, err := ByName("wal"); err != nil {
		t.Fatal(err)
	}
}
