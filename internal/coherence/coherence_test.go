package coherence

import (
	"math/rand"
	"testing"

	"bbb/internal/cache"
	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
)

type rig struct {
	eng  *engine.Engine
	mem  *memory.Memory
	dram *memctrl.Controller
	nvmm *memctrl.Controller
	h    *Hierarchy
}

func newRig(t testing.TB, cfg Config, policy PersistPolicy) *rig {
	t.Helper()
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	dram := memctrl.New(memctrl.DefaultDRAM(), eng, mem)
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	if policy == nil {
		policy = NullPolicy{}
	}
	return &rig{eng: eng, mem: mem, dram: dram, nvmm: nvmm,
		h: New(cfg, eng, mem.Layout(), dram, nvmm, policy)}
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.L1Size = 1024 // 16 lines: 2 sets x 8 ways
	cfg.L2Size = 4096 // 64 lines: 8 sets x 8 ways
	return cfg
}

// load runs a synchronous load to completion.
func (r *rig) load(t *testing.T, core int, addr memory.Addr, size int) uint64 {
	t.Helper()
	var val uint64
	doneCount := 0
	r.h.Load(core, addr, size, func(v uint64) { val = v; doneCount++ })
	r.eng.Run()
	if doneCount != 1 {
		t.Fatalf("load done fired %d times", doneCount)
	}
	return val
}

func (r *rig) store(t *testing.T, core int, addr memory.Addr, size int, val uint64) {
	t.Helper()
	doneCount := 0
	r.h.Store(core, addr, size, val, func() { doneCount++ })
	r.eng.Run()
	if doneCount != 1 {
		t.Fatalf("store done fired %d times", doneCount)
	}
}

func (r *rig) check(t *testing.T) {
	t.Helper()
	if err := r.h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) nv(n uint64) memory.Addr {
	return r.mem.Layout().PersistentBase + memory.Addr(n)*memory.LineSize
}

func (r *rig) dr(n uint64) memory.Addr {
	return memory.Addr(n) * memory.LineSize
}

func TestLoadFromMemory(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.dr(10)
	r.mem.Poke(a, []byte{0xEF, 0xBE, 0xAD, 0xDE})
	if v := r.load(t, 0, a, 4); v != 0xDEADBEEF {
		t.Fatalf("load = %#x", v)
	}
	// Second load hits L1.
	hits := r.h.Stats.Get("l1.load_hits")
	r.load(t, 0, a, 4)
	if r.h.Stats.Get("l1.load_hits") != hits+1 {
		t.Fatal("second load should hit L1")
	}
	r.check(t)
}

func TestStoreLoadRoundTrip(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.nv(3)
	r.store(t, 1, a+8, 8, 0x1122334455667788)
	if v := r.load(t, 1, a+8, 8); v != 0x1122334455667788 {
		t.Fatalf("load = %#x", v)
	}
	// Other core sees it too (via intervention).
	if v := r.load(t, 2, a+8, 8); v != 0x1122334455667788 {
		t.Fatalf("remote load = %#x", v)
	}
	r.check(t)
}

func TestExclusiveThenSharedGrant(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.dr(5)
	r.load(t, 0, a, 8)
	l := r.h.l1s[0].Probe(a)
	if l == nil || l.State != cache.Exclusive {
		t.Fatalf("first reader state = %v, want E", l)
	}
	r.load(t, 1, a, 8)
	l0, l1 := r.h.l1s[0].Probe(a), r.h.l1s[1].Probe(a)
	if l0.State != cache.Shared || l1.State != cache.Shared {
		t.Fatalf("states after second read = %v, %v; want S, S", l0.State, l1.State)
	}
	r.check(t)
}

func TestInterventionOnModified(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.nv(7)
	r.store(t, 0, a, 8, 99)
	l0 := r.h.l1s[0].Probe(a)
	if l0.State != cache.Modified {
		t.Fatalf("writer state = %v, want M", l0.State)
	}
	if v := r.load(t, 1, a, 8); v != 99 {
		t.Fatalf("reader got %d, want 99", v)
	}
	if l0.State != cache.Shared {
		t.Fatalf("writer state after intervention = %v, want S", l0.State)
	}
	// The merged data landed dirty in L2, but no memory writeback happened.
	l2 := r.h.l2.Probe(a)
	if l2 == nil || !l2.Dirty {
		t.Fatal("L2 should hold the merged line dirty")
	}
	if r.mem.Writes[memory.RegionNVMM] != 0 {
		t.Fatal("intervention must not write memory")
	}
	if r.h.Stats.Get("l1.interventions") != 1 {
		t.Fatal("intervention not counted")
	}
	r.check(t)
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.dr(9)
	r.load(t, 0, a, 8)
	r.load(t, 1, a, 8)
	r.load(t, 2, a, 8)
	r.store(t, 1, a, 8, 42) // upgrade from S
	if r.h.l1s[0].Probe(a) != nil || r.h.l1s[2].Probe(a) != nil {
		t.Fatal("sharers not invalidated on upgrade")
	}
	l1 := r.h.l1s[1].Probe(a)
	if l1 == nil || l1.State != cache.Modified {
		t.Fatalf("writer state = %v, want M", l1)
	}
	if got := r.h.Stats.Get("l1.invalidations"); got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
	r.check(t)
}

func TestWriteMissInvalidatesOwner(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.nv(11)
	r.store(t, 0, a, 8, 1)
	r.store(t, 1, a, 8, 2) // RdX: owner's M copy merges then invalidates
	if r.h.l1s[0].Probe(a) != nil {
		t.Fatal("old owner still holds the line")
	}
	if v := r.load(t, 2, a, 8); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	r.check(t)
}

func TestPingPongManyCores(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.nv(0)
	for i := 0; i < 20; i++ {
		r.store(t, i%4, a, 8, uint64(i))
	}
	if v := r.load(t, 3, a, 8); v != 19 {
		t.Fatalf("final value = %d, want 19", v)
	}
	r.check(t)
}

func TestL1EvictionWritesBackToL2(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	// L1 has 2 sets x 8 ways; fill one set beyond capacity with dirty lines.
	// Lines with the same (lineNum % 2) land in one L1 set.
	for i := uint64(0); i < 10; i++ {
		r.store(t, 0, r.nv(i*2), 8, 100+i)
	}
	if got := r.h.Stats.Get("l1.evictions"); got == 0 {
		t.Fatal("expected L1 evictions")
	}
	// Everything is still correct through the L2.
	for i := uint64(0); i < 10; i++ {
		if v := r.load(t, 0, r.nv(i*2), 8); v != 100+i {
			t.Fatalf("line %d = %d, want %d", i, v, 100+i)
		}
	}
	r.check(t)
}

func TestL2EvictionBackInvalidatesAndWritesBack(t *testing.T) {
	r := newRig(t, smallCfg(), nil) // L2: 8 sets x 8 ways
	// Fill one L2 set (lines with same lineNum%8) beyond capacity.
	base := uint64(0)
	for i := uint64(0); i < 12; i++ {
		r.store(t, 0, r.nv(base+i*8), 8, 200+i)
	}
	if got := r.h.Stats.Get("l2.evictions"); got == 0 {
		t.Fatal("expected L2 evictions")
	}
	// NullPolicy writes dirty victims back to NVMM (this is eADR behaviour).
	if r.h.Stats.Get("l2.writebacks") == 0 {
		t.Fatal("dirty victims should write back under NullPolicy")
	}
	// All data still correct (some from memory now).
	for i := uint64(0); i < 12; i++ {
		if v := r.load(t, 0, r.nv(base+i*8), 8); v != 200+i {
			t.Fatalf("line %d = %d, want %d", i, v, 200+i)
		}
	}
	r.check(t)
}

func TestSubWordAccess(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.nv(20)
	r.store(t, 0, a, 1, 0xAA)
	r.store(t, 0, a+1, 1, 0xBB)
	r.store(t, 0, a+2, 2, 0xCCDD)
	if v := r.load(t, 0, a, 4); v != 0xCCDDBBAA {
		t.Fatalf("composed word = %#x", v)
	}
}

func TestCrossLinePanics(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing access did not panic")
		}
	}()
	r.h.Load(0, r.nv(0)+60, 8, func(uint64) {})
}

func TestClwbPersistsDirtyLine(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.nv(30)
	r.store(t, 0, a, 8, 777)
	done := false
	r.h.Clwb(0, a, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("clwb never completed")
	}
	// Line still cached and writable, but clean.
	l := r.h.l1s[0].Probe(a)
	if l == nil || l.Dirty {
		t.Fatalf("after clwb line = %+v, want present and clean", l)
	}
	// Data is durable: WPQ snoop or medium.
	r.nvmm.CrashDrain()
	var buf [memory.LineSize]byte
	r.mem.PeekLine(a, &buf)
	if got := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16; got != 777 {
		t.Fatalf("durable value = %d, want 777", got)
	}
	r.check(t)
}

func TestClwbCleanLineIsCheap(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	a := r.nv(31)
	r.load(t, 0, a, 8)
	done := false
	r.h.Clwb(0, a, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("clwb on clean line never completed")
	}
	if r.h.Stats.Get("clwb.clean") != 1 {
		t.Fatal("clean clwb not counted")
	}
	if r.nvmm.Stats.Get("nvmm.writes") != 0 {
		t.Fatal("clean clwb should not write")
	}
}

// recordingPolicy verifies hook invocation order and arguments.
type recordingPolicy struct {
	NullPolicy
	commits     []memory.Addr
	invalidates []int
	evicts      []memory.Addr
	dropDirty   bool
}

func (p *recordingPolicy) CommitStore(core int, addr memory.Addr, data *[memory.LineSize]byte) {
	p.commits = append(p.commits, addr)
}
func (p *recordingPolicy) OnRemoteInvalidate(victim int, addr memory.Addr) {
	p.invalidates = append(p.invalidates, victim)
}
func (p *recordingPolicy) OnLLCEvict(addr memory.Addr, persistent, dirty bool, done func(bool)) {
	p.evicts = append(p.evicts, addr)
	done(dirty && !p.dropDirty)
}

func TestPolicyHooksFire(t *testing.T) {
	p := &recordingPolicy{}
	r := newRig(t, smallCfg(), p)
	a := r.nv(1)
	r.store(t, 0, a, 8, 5) // persisting store -> CommitStore
	if len(p.commits) != 1 || p.commits[0] != a {
		t.Fatalf("commits = %v", p.commits)
	}
	r.store(t, 0, r.dr(1), 8, 5) // DRAM store: no CommitStore
	if len(p.commits) != 1 {
		t.Fatal("non-persistent store fired CommitStore")
	}
	r.store(t, 1, a, 8, 6) // remote write -> OnRemoteInvalidate(0)
	if len(p.invalidates) != 1 || p.invalidates[0] != 0 {
		t.Fatalf("invalidates = %v", p.invalidates)
	}
	if len(p.commits) != 2 {
		t.Fatal("second persisting store missing CommitStore")
	}
}

func TestPolicyCanSkipWriteback(t *testing.T) {
	p := &recordingPolicy{dropDirty: true}
	r := newRig(t, smallCfg(), p)
	for i := uint64(0); i < 12; i++ {
		r.store(t, 0, r.nv(i*8), 8, i)
	}
	if r.h.Stats.Get("l2.evictions") == 0 {
		t.Fatal("expected evictions")
	}
	if r.h.Stats.Get("l2.writebacks") != 0 {
		t.Fatal("policy drop was ignored")
	}
	if r.h.Stats.Get("l2.writebacks_skipped") == 0 {
		t.Fatal("skipped writebacks not counted")
	}
}

// stallPolicy rejects the first persisting store once, then admits.
type stallPolicy struct {
	NullPolicy
	rejections int
	waiter     func()
}

func (p *stallPolicy) CanAcceptStore(core int, addr memory.Addr) bool {
	return p.rejections > 0
}
func (p *stallPolicy) OnSpace(core int, fn func()) {
	p.rejections++
	p.waiter = fn
}

func TestStoreStallsUntilSpace(t *testing.T) {
	p := &stallPolicy{}
	r := newRig(t, smallCfg(), p)
	done := false
	r.h.Store(0, r.nv(2), 8, 9, func() { done = true })
	r.eng.Run()
	if done {
		t.Fatal("store completed despite rejection")
	}
	if r.h.Stats.Get("store.persist_rejected") != 1 {
		t.Fatal("rejection not counted")
	}
	p.waiter() // space frees
	r.eng.Run()
	if !done {
		t.Fatal("store never completed after space freed")
	}
}

// Random multi-core workload: functional correctness against a reference
// model, plus invariants at the end.
func TestRandomizedCoherenceAgainstReference(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	rng := rand.New(rand.NewSource(42))
	ref := map[memory.Addr]uint64{}
	const lines = 48
	for i := 0; i < 3000; i++ {
		core := rng.Intn(4)
		var a memory.Addr
		if rng.Intn(2) == 0 {
			a = r.nv(uint64(rng.Intn(lines)))
		} else {
			a = r.dr(uint64(rng.Intn(lines)))
		}
		if rng.Intn(3) == 0 {
			want := ref[a]
			if got := r.load(t, core, a, 8); got != want {
				t.Fatalf("op %d: load core %d %#x = %d, want %d", i, core, a, got, want)
			}
		} else {
			v := rng.Uint64()
			r.store(t, core, a, 8, v)
			ref[a] = v
		}
	}
	r.check(t)
}
