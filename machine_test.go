package bbb

import (
	"strings"
	"testing"
)

func TestMachineBasicRun(t *testing.T) {
	m := NewMachine(SchemeBBB, Options{Threads: 2})
	if m.Cores() != 2 {
		t.Fatalf("Cores = %d", m.Cores())
	}
	a := m.PAlloc(64)
	b := m.PAlloc(64)
	res := m.RunPrograms(
		func(e Env) { e.Store(a, 8, 111) },
		func(e Env) { e.Store(b, 8, 222) },
	)
	if res.PersistingStores != 2 {
		t.Fatalf("persisting stores = %d", res.PersistingStores)
	}
	// After a completed run the bbPB may still hold the lines; Peek sees
	// the durable image only, so values may or may not be there. Crash
	// machines are the way to assert durability — see below.
}

func TestMachineCrashDurability(t *testing.T) {
	m := NewMachine(SchemeBBB, Options{Threads: 1})
	a := m.PAlloc(64)
	finished, rep := m.RunUntilCrash(1_000_000, func(e Env) {
		e.Store(a, 8, 777)
	})
	if !finished {
		t.Fatal("tiny program did not finish")
	}
	if m.Peek64(a) != 777 {
		t.Fatalf("durable value = %d, want 777", m.Peek64(a))
	}
	if rep.Lines() == 0 {
		t.Fatal("nothing drained")
	}
}

func TestMachinePokeInitialState(t *testing.T) {
	m := NewMachine(SchemeEADR, Options{Threads: 1})
	a := m.PAlloc(64)
	m.Poke(a, []byte{0x2A})
	var loaded uint64
	m.RunPrograms(func(e Env) { loaded = e.Load(a, 8) })
	if loaded != 0x2A {
		t.Fatalf("loaded = %d, want the poked 42", loaded)
	}
}

func TestMachineVolatileBaseNotPersistent(t *testing.T) {
	m := NewMachine(SchemeBBB, Options{Threads: 1})
	v := m.VolatileBase()
	res := m.RunPrograms(func(e Env) { e.Store(v, 8, 5) })
	if res.PersistingStores != 0 {
		t.Fatal("volatile store counted as persisting")
	}
}

func TestMachineCASExposed(t *testing.T) {
	m := NewMachine(SchemeBBB, Options{Threads: 1})
	a := m.PAlloc(64)
	var ok bool
	m.RunUntilCrash(1_000_000, func(e Env) {
		e.Store(a, 8, 1)
		_, ok = e.CompareAndSwap(a, 8, 1, 2)
	})
	if !ok {
		t.Fatal("CAS failed")
	}
	if m.Peek64(a) != 2 {
		t.Fatalf("durable = %d, want 2 (CAS persisted)", m.Peek64(a))
	}
}

func TestMachineWrongProgramCountPanics(t *testing.T) {
	m := NewMachine(SchemeBBB, Options{Threads: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.RunPrograms(func(e Env) {})
}

func TestMachineDumpTrace(t *testing.T) {
	m := NewMachine(SchemeBBB, Options{Threads: 1, TraceCapacity: 64})
	a := m.PAlloc(64)
	m.RunUntilCrash(1_000_000, func(e Env) { e.Store(a, 8, 9) })
	var b strings.Builder
	m.DumpTrace(&b)
	if !strings.Contains(b.String(), "store-commit") {
		t.Fatalf("trace missing store-commit:\n%s", b.String())
	}
}

func TestRunTraced(t *testing.T) {
	var b strings.Builder
	o := scaled(30)
	o.TraceCapacity = 4096
	o.Trace = &b
	res, err := Run("hashmap", SchemeBBB, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if !strings.Contains(b.String(), "pb-alloc") {
		t.Fatal("trace missing bbPB events")
	}
}
