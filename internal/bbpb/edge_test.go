package bbpb

import (
	"testing"

	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
)

func TestMigrationDuringDrainInFlight(t *testing.T) {
	// An entry whose drain is in flight can still migrate out; the landing
	// drain must not corrupt the buffer (the drain_after_migration path).
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	b := New(Config{Entries: 4, DrainThreshold: 1.0}, 0, eng, nvmm)
	a := mem.Layout().PersistentBase
	d := lineOf(5)
	b.Put(a, &d)
	b.ForceDrain(a, func() {}) // drain starts; Write called synchronously
	// Migrate before the ack lands.
	if _, ok := b.Remove(a); !ok {
		t.Fatal("Remove failed mid-drain")
	}
	eng.Run() // drain ack fires; entry already gone
	if b.Counters().Get("bbpb.drain_after_migration") != 1 {
		t.Fatal("drain-after-migration not handled")
	}
	if b.Occupancy() != 0 {
		t.Fatalf("occupancy = %d", b.Occupancy())
	}
}

func TestCoalesceRejectedWhileDraining(t *testing.T) {
	// Once an entry's drain snapshot is taken, a new store to the block
	// must get a fresh entry (or stall), never mutate the in-flight data.
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	b := New(Config{Entries: 4, DrainThreshold: 1.0}, 0, eng, nvmm)
	a := mem.Layout().PersistentBase
	d1, d2 := lineOf(1), lineOf(2)
	b.Put(a, &d1)
	b.ForceDrain(a, func() {})
	if !b.Put(a, &d2) {
		t.Fatal("fresh Put after drain start rejected despite space")
	}
	if b.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2 (old draining + fresh)", b.Occupancy())
	}
	// The next store coalesces into the fresh entry, not a third one.
	d3 := lineOf(3)
	b.Put(a, &d3)
	if b.Occupancy() != 2 {
		t.Fatalf("occupancy = %d after a third store, want 2", b.Occupancy())
	}
	eng.Run()
	// The fresh entry remains; the drained one is gone.
	if b.Occupancy() != 1 || !b.Has(a) {
		t.Fatalf("after drain: occupancy=%d has=%v", b.Occupancy(), b.Has(a))
	}
	data, _ := b.Remove(a)
	if data[0] != 3 {
		t.Fatalf("surviving data = %d, want the newest 3", data[0])
	}
	// A migration mid-drain takes the newest data and leaves only the
	// draining entry behind.
	b.Put(a, &d1)
	b.ForceDrain(a, func() {})
	b.Put(a, &d2)
	if data, _ := b.Remove(a); data[0] != 2 || b.Occupancy() != 1 {
		t.Fatalf("mid-drain Remove took %d and left %d entries, want 2 and 1", data[0], b.Occupancy())
	}
}

func TestProcSideRemoveTakesYoungest(t *testing.T) {
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	p := NewProcSide(Config{Entries: 8, DrainThreshold: 1.0}, 0, eng, nvmm)
	a := mem.Layout().PersistentBase
	b := a + memory.LineSize
	d1, d2, d3 := lineOf(1), lineOf(2), lineOf(3)
	p.Put(a, &d1)
	p.Put(b, &d2)
	p.Put(a, &d3) // second entry for a (non-consecutive)
	data, ok := p.Remove(a)
	if !ok || data[0] != 3 {
		t.Fatalf("Remove = %d,%v; want the youngest (3)", data[0], ok)
	}
	// The older entry for a remains and drains in order.
	if !p.Has(a) {
		t.Fatal("older entry for a vanished")
	}
}

func TestProcSideCrashDrainOrder(t *testing.T) {
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	p := NewProcSide(Config{Entries: 8, DrainThreshold: 1.0}, 0, eng, nvmm)
	base := mem.Layout().PersistentBase
	var order []memory.Addr
	for i := uint64(0); i < 4; i++ {
		d := lineOf(byte(i))
		p.Put(base+memory.Addr(i)*memory.LineSize, &d)
	}
	p.CrashDrain(func(a memory.Addr, _ *[memory.LineSize]byte) {
		order = append(order, a)
	})
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("crash drain out of program order: %v", order)
		}
	}
}

func TestWaitSpaceWithSpaceRunsImmediately(t *testing.T) {
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	b := New(Config{Entries: 2, DrainThreshold: 1.0}, 0, eng, nvmm)
	ran := false
	b.WaitSpace(func() { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("waiter on non-full buffer never ran")
	}
}

func TestZeroEntriesPanics(t *testing.T) {
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	for _, build := range []func(){
		func() { New(Config{}, 0, eng, nvmm) },
		func() { NewProcSide(Config{}, 0, eng, nvmm) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("zero-entry config did not panic")
				}
			}()
			build()
		}()
	}
}
