package bbb

import (
	"runtime"
	"testing"

	"bbb/internal/cpu"
	"bbb/internal/crashmc"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/sweep"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// programPanic is the value a deliberately failing workload program panics
// with; carrying the sweep index shows which point's panic surfaced.
type programPanic struct{ point int }

// TestProgramPanicReachesSweepCaller checks that a panic inside a workload
// program comes out of System.Run on the simulating goroutine with its
// original value, so sweep's lowest-index panic propagation hands it to the
// caller, where it can be recovered. Points 1 and 3 panic mid-run, after
// simulated time has advanced: point 1 in a program body, point 3 in an
// engine event, which the running programs dispatch inline on their own
// coroutines. Point 1's panic must win, and point 3's must surface when it
// runs alone.
func TestProgramPanicReachesSweepCaller(t *testing.T) {
	point := func(i int) Result {
		cfg := system.DefaultConfig(persistency.BBB)
		cfg.Cores = 2
		sys := system.New(cfg)
		defer sys.Shutdown()
		base := cfg.Layout.PersistentBase
		progs := make([]system.Program, cfg.Cores)
		for c := range progs {
			region := base + memory.Addr(c*64)*memory.LineSize
			progs[c] = func(e cpu.Env) {
				for j := 0; j < 20; j++ {
					cpu.Store64(e, region+memory.Addr(j)*memory.LineSize, uint64(j))
					e.Compute(40)
					if c == 1 && j == 10 && i == 1 {
						panic(programPanic{point: i})
					}
				}
			}
		}
		if i == 3 {
			sys.Eng.Schedule(500, func() { panic(programPanic{point: i}) })
		}
		return sys.Run(progs)
	}
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	if got := recovered(func() { sweep.Map(2, 4, point) }); got != (programPanic{point: 1}) {
		t.Fatalf("recovered %#v, want programPanic{point: 1}", got)
	}
	if got := recovered(func() { point(3) }); got != (programPanic{point: 3}) {
		t.Fatalf("recovered %#v from point 3, want programPanic{point: 3}", got)
	}
	// The surviving points still run to completion afterwards, and they run
	// past cycle 500, so point 3's event fires while programs drive the loop.
	if res := point(0); res.Stores != 40 || res.Cycles <= 500 {
		t.Fatalf("clean point stored %d times by cycle %d, want 40 after cycle 500", res.Stores, res.Cycles)
	}
}

// TestTeardownLeavesNoGoroutines runs crash captures, completed runs and a
// machine torn down before its cores ever fetched, and requires the
// goroutine count to be back at its starting value as soon as they return:
// stopping a core ends its program synchronously.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	names := []string{"hashmap", "rtree", "linkedlist", "pds/queue", "kv"}
	schemes := persistency.Schemes()
	o := scaled(20)
	o.Threads = 4
	before := runtime.NumGoroutine()

	for i := 0; i < 50; i++ {
		name, s := names[i%len(names)], schemes[i%len(schemes)]
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		crashAt := engine.Cycle(500 + 400*i)
		sys, finished := workload.BuildToCrash(w, s, o.sysConfig(s), o.params(), crashAt)
		crashmc.Capture(sys, crashAt, finished)
	}
	for i := 0; i < 50; i++ {
		MustRun(names[i%len(names)], schemes[i%len(schemes)], o)
	}
	w, err := workload.ByName("hashmap")
	if err != nil {
		t.Fatal(err)
	}
	sys, progs := workload.Build(w, SchemePMEM, o.sysConfig(SchemePMEM), o.params())
	for i, c := range sys.Cores {
		c.Start(progs[i])
	}
	sys.Shutdown()

	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after teardown", before, after)
	}
}
