package system

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bbb/internal/cpu"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
)

// smallConfig shrinks the machine so tests exercise evictions and buffer
// pressure quickly.
func smallConfig(s persistency.Scheme) Config {
	cfg := DefaultConfig(s)
	cfg.Cores = 4
	cfg.Hierarchy.Cores = 4
	cfg.Hierarchy.L1Size = 2048
	cfg.Hierarchy.L2Size = 16 * 1024
	cfg.BBPB.Entries = 8
	return cfg
}

// counterProgram makes each core hammer its own persistent region plus a
// shared line, generating coalescing, migration and eviction traffic.
func counterPrograms(sys *System, opsPerCore int) []Program {
	base := sys.Cfg.Layout.PersistentBase
	shared := base // line 0 shared by everyone
	progs := make([]Program, sys.Cfg.Cores)
	for i := range progs {
		i := i
		region := base + memory.Addr(1+i*64)*memory.LineSize
		progs[i] = func(e cpu.Env) {
			for j := 0; j < opsPerCore; j++ {
				a := region + memory.Addr(j%48)*memory.LineSize
				cpu.Store64(e, a, uint64(j))
				e.PersistBarrier(a)
				if j%7 == 0 {
					cpu.Store64(e, shared, uint64(i*1000+j))
					e.PersistBarrier(shared)
				}
				if j%3 == 0 {
					cpu.Load64(e, a)
				}
			}
		}
	}
	return progs
}

func TestRunAllSchemesFunctionallyEqual(t *testing.T) {
	// The same program must leave the same architectural values behind
	// under every scheme; only timing and write counts differ.
	final := map[persistency.Scheme]uint64{}
	for _, s := range persistency.Schemes() {
		sys := New(smallConfig(s))
		res := sys.Run(counterPrograms(sys, 200))
		if res.Cycles == 0 {
			t.Fatalf("%v: zero makespan", s)
		}
		if err := sys.Hier.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// Read back a per-core line architecturally (through the caches).
		a := sys.Cfg.Layout.PersistentBase + memory.Addr(1+2*64+47)*memory.LineSize
		data, ok := sys.Hier.MergedLine(a)
		var v uint64
		if ok {
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
		} else {
			b := sys.Mem.Peek(a, 8)
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
		}
		final[s] = v
	}
	want := final[persistency.EADR]
	for s, v := range final {
		if v != want {
			t.Fatalf("scheme %v final value %d != eADR %d", s, v, want)
		}
	}
}

// mixedPrograms model the paper's insertion workloads at miniature scale:
// each operation initializes a fresh "node" line (several consecutive field
// stores, which coalesce under every organization), then updates two hot
// "root" lines in alternation — which a memory-side bbPB coalesces but a
// processor-side one cannot (§V-C) — with pointer-chasing loads mixed in.
func mixedPrograms(sys *System, opsPerCore, linesPerCore int) []Program {
	base := sys.Cfg.Layout.PersistentBase
	progs := make([]Program, sys.Cfg.Cores)
	for i := range progs {
		i := i
		region := base + memory.Addr(1+i*(linesPerCore+2))*memory.LineSize
		hotA := region + memory.Addr(linesPerCore)*memory.LineSize
		hotB := hotA + memory.LineSize
		progs[i] = func(e cpu.Env) {
			for j := 0; j < opsPerCore; j++ {
				// "Allocate" and initialize a node (write-once pattern).
				a := region + memory.Addr(j%linesPerCore)*memory.LineSize
				for f := 0; f < 4; f++ {
					cpu.Store64(e, a+memory.Addr(f*8), uint64(j*10+f))
				}
				e.PersistBarrier(a)
				// Link it into the structure: alternating root updates.
				cpu.Store64(e, hotA, a)
				cpu.Store64(e, hotB, uint64(j))
				e.PersistBarrier(hotA, hotB)
				// Traversal work between insertions.
				cpu.Load64(e, region+memory.Addr((j*13)%linesPerCore)*memory.LineSize)
				e.Compute(20)
			}
		}
	}
	return progs
}

func TestBBBPerformanceCloseToEADRAndPMEMSlow(t *testing.T) {
	cycles := map[persistency.Scheme]uint64{}
	for _, s := range []persistency.Scheme{persistency.EADR, persistency.BBB, persistency.PMEM} {
		cfg := smallConfig(s)
		cfg.BBPB.Entries = 32 // the paper's default size
		sys := New(cfg)
		res := sys.Run(mixedPrograms(sys, 300, 80))
		cycles[s] = res.Cycles
	}
	// The paper's headline ordering: eADR fastest (no persist overhead),
	// BBB close behind, PMEM far slower due to per-store clwb+sfence.
	eadr, bbb, pmem := float64(cycles[persistency.EADR]), float64(cycles[persistency.BBB]), float64(cycles[persistency.PMEM])
	if bbb > eadr*1.5 {
		t.Fatalf("BBB %0.f cycles vs eADR %0.f: more than 50%% slower", bbb, eadr)
	}
	if pmem < bbb*1.5 {
		t.Fatalf("PMEM %0.f cycles vs BBB %0.f: strict persistency should be much slower", pmem, bbb)
	}
}

func TestBBBWritesCloseToEADRProcSideWorse(t *testing.T) {
	writes := map[persistency.Scheme]uint64{}
	for _, s := range []persistency.Scheme{persistency.EADR, persistency.BBB, persistency.BBBProc} {
		cfg := smallConfig(s)
		cfg.BBPB.Entries = 32
		sys := New(cfg)
		res := sys.Run(mixedPrograms(sys, 300, 80))
		writes[s] = res.NVMMWrites
	}
	eadr, bbb, proc := float64(writes[persistency.EADR]), float64(writes[persistency.BBB]), float64(writes[persistency.BBBProc])
	if eadr == 0 {
		t.Fatal("eADR produced no NVMM writes: working set fits the caches")
	}
	if bbb > eadr*2.0 {
		t.Fatalf("BBB writes %0.f vs eADR %0.f: memory-side coalescing not working", bbb, eadr)
	}
	if proc <= bbb {
		t.Fatalf("proc-side writes %0.f <= memory-side %0.f: expected more", proc, bbb)
	}
}

func TestBBBForcedDrainsAndSkippedWritebacks(t *testing.T) {
	cfg := smallConfig(persistency.BBB)
	cfg.BBPB.Entries = 32
	sys := New(cfg)
	res := sys.Run(mixedPrograms(sys, 300, 80)) // 4x82 lines >> 256-line L2
	// Evictions of dirty persistent lines must skip the writeback (§III-E).
	if res.Counters.Get("l2.evictions") == 0 {
		t.Fatal("workload did not trigger L2 evictions")
	}
	if res.SkippedWritebacks == 0 {
		t.Fatal("no skipped writebacks despite persistent evictions")
	}
}

func TestCrashDurabilityBBBWithoutBarriers(t *testing.T) {
	// Under BBB a store is durable the moment it commits, with NO barriers.
	// Crash mid-run and verify: for each core's region, the image holds a
	// prefix-consistent value (program order: if store j is present, so is
	// every older store to the same location sequence).
	cfg := smallConfig(persistency.BBB)
	sys := New(cfg)
	base := cfg.Layout.PersistentBase
	progs := make([]Program, cfg.Cores)
	for i := range progs {
		region := base + memory.Addr(1000+i*8)*memory.LineSize
		progs[i] = func(e cpu.Env) {
			// Monotonic counter: value k is written only after k-1.
			for k := uint64(1); k <= 5000; k++ {
				cpu.Store64(e, region, k)
			}
		}
	}
	done := sys.RunUntil(20000, progs)
	rep := sys.Crash()
	if rep.Scheme != persistency.BBB {
		t.Fatal("wrong scheme in report")
	}
	for i := 0; i < cfg.Cores; i++ {
		region := base + memory.Addr(1000+i*8)*memory.LineSize
		b := sys.Mem.Peek(region, 8)
		var v uint64
		for j := 7; j >= 0; j-- {
			v = v<<8 | uint64(b[j])
		}
		if v > 5000 {
			t.Fatalf("core %d counter %d out of range", i, v)
		}
		if !done && v == 0 && sys.Eng.Now() > 10000 {
			t.Fatalf("core %d: nothing durable after %d cycles under BBB", i, sys.Eng.Now())
		}
	}
}

func TestCrashPMEMWithoutBarriersLosesData(t *testing.T) {
	// The PMEM baseline without barriers: buffered/cached stores are lost.
	cfg := smallConfig(persistency.PMEM)
	sys := New(cfg)
	base := cfg.Layout.PersistentBase
	progs := make([]Program, cfg.Cores)
	for i := range progs {
		region := base + memory.Addr(2000+i*8)*memory.LineSize
		progs[i] = func(e cpu.Env) {
			for k := uint64(1); k <= 100; k++ {
				cpu.Store64(e, region, k) // no PersistBarrier
			}
		}
	}
	sys.RunUntil(3000, progs)
	rep := sys.Crash()
	if rep.CacheLines != 0 || rep.BufLines != 0 || rep.SBStores != 0 {
		t.Fatalf("PMEM drained cache/buffer state: %+v", rep)
	}
	// With a cold WPQ and everything in caches, the image stays stale.
	lost := 0
	for i := 0; i < cfg.Cores; i++ {
		region := base + memory.Addr(2000+i*8)*memory.LineSize
		b := sys.Mem.Peek(region, 8)
		var v uint64
		for j := 7; j >= 0; j-- {
			v = v<<8 | uint64(b[j])
		}
		if v != 100 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("PMEM without barriers lost nothing: persistence domain too large?")
	}
}

func TestCrashEADRDrainsWholeHierarchy(t *testing.T) {
	cfg := smallConfig(persistency.EADR)
	sys := New(cfg)
	base := cfg.Layout.PersistentBase
	progs := make([]Program, cfg.Cores)
	for i := range progs {
		region := base + memory.Addr(3000+i*8)*memory.LineSize
		progs[i] = func(e cpu.Env) {
			for k := uint64(1); k <= 50; k++ {
				cpu.Store64(e, region+memory.Addr(k%4)*memory.LineSize, k)
			}
		}
	}
	sys.RunUntil(500000, progs)
	rep := sys.Crash()
	if rep.CacheLines == 0 {
		t.Fatal("eADR crash drained no cache lines")
	}
	// Every final value is durable: eADR loses nothing once committed.
	for i := 0; i < cfg.Cores; i++ {
		region := base + memory.Addr(3000+i*8)*memory.LineSize
		b := sys.Mem.Peek(region+memory.Addr(50%4)*memory.LineSize, 8)
		var v uint64
		for j := 7; j >= 0; j-- {
			v = v<<8 | uint64(b[j])
		}
		if v == 0 {
			t.Fatalf("core %d: committed store missing after eADR drain", i)
		}
	}
}

func TestDrainReportScalesWithScheme(t *testing.T) {
	// eADR's drain is much larger than BBB's — the paper's core cost claim.
	// Use the full Table III cache sizes so dirty state accumulates in the
	// hierarchy the way it would on the real machine.
	sizes := map[persistency.Scheme]int{}
	for _, s := range []persistency.Scheme{persistency.EADR, persistency.BBB} {
		cfg := DefaultConfig(s)
		cfg.Cores = 4
		cfg.Hierarchy.Cores = 4
		sys := New(cfg)
		sys.RunUntil(2_000_000, mixedPrograms(sys, 400, 200))
		rep := sys.Crash()
		sizes[s] = rep.Lines()
	}
	if sizes[persistency.EADR] <= 2*sizes[persistency.BBB] {
		t.Fatalf("eADR drained %d lines, not much larger than BBB's %d",
			sizes[persistency.EADR], sizes[persistency.BBB])
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		sys := New(smallConfig(persistency.BBB))
		return sys.Run(counterPrograms(sys, 150))
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.NVMMWrites != b.NVMMWrites || a.Drains != b.Drains {
		t.Fatalf("nondeterminism: %+v vs %+v", a, b)
	}
}

func TestTableIVStoreMix(t *testing.T) {
	sys := New(smallConfig(persistency.BBB))
	res := sys.Run(counterPrograms(sys, 200))
	if res.PersistingStores == 0 || res.Stores == 0 {
		t.Fatal("store mix not measured")
	}
	if res.PersistingStores > res.Stores {
		t.Fatal("more persisting stores than stores")
	}
}

// TestAdvanceMatchesRunUntil walks one machine through ascending limits
// and, at each, requires the same crash image, drain report, completion
// state and event count as a fresh machine run to that limit in one
// RunUntil. Programs drive the event loop themselves, so this pins that
// they stop exactly at each limit and pick up where they left off.
func TestAdvanceMatchesRunUntil(t *testing.T) {
	limits := []engine.Cycle{0, 1, 700, 701, 2_500, 9_000, 9_001, 20_000, 45_000, 90_000, 1 << 40}
	for _, s := range persistency.Schemes() {
		cfg := smallConfig(s)
		walker := New(cfg)
		walker.Start(counterPrograms(walker, 60))
		var img *memory.Memory
		for _, at := range limits {
			walked := walker.Advance(at)
			var rep persistency.DrainReport
			img, rep = walker.CrashImage(img)

			fresh := New(cfg)
			finished := fresh.RunUntil(at, counterPrograms(fresh, 60))
			freshImg, freshRep := fresh.CrashImage(nil)
			fresh.Shutdown()

			if now := walker.Eng.Now(); now > at {
				t.Fatalf("%s: Advance(%d) dispatched an event at cycle %d", s, at, now)
			}
			if walked != finished || rep != freshRep || walker.Eng.Dispatched != fresh.Eng.Dispatched {
				t.Fatalf("%s @%d: walker finished=%t %+v after %d events; fresh finished=%t %+v after %d",
					s, at, walked, rep, walker.Eng.Dispatched, finished, freshRep, fresh.Eng.Dispatched)
			}
			if err := sameImage(img, freshImg); err != nil {
				t.Fatalf("%s @%d: %v", s, at, err)
			}
		}
		walker.Shutdown()
	}
}

// sameImage reports the first page at which two memory images differ.
func sameImage(a, b *memory.Memory) error {
	pa, pb := a.PageBases(), b.PageBases()
	if !reflect.DeepEqual(pa, pb) {
		return fmt.Errorf("images materialize different pages: %d vs %d", len(pa), len(pb))
	}
	for _, base := range pa {
		if !bytes.Equal(a.Peek(base, memory.PageSize), b.Peek(base, memory.PageSize)) {
			return fmt.Errorf("images differ in page %#x", base)
		}
	}
	return nil
}
