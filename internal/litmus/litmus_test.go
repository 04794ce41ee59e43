package litmus

import (
	"fmt"
	"reflect"
	"testing"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// TestCorpusValidates pins corpus hygiene: every test validates, names
// are unique, and thread counts stay within the shapes we generate.
func TestCorpusValidates(t *testing.T) {
	seen := map[string]bool{}
	for _, tc := range Corpus() {
		if err := tc.Validate(); err != nil {
			t.Errorf("%s: %v", tc.Name, err)
		}
		if seen[tc.Name] {
			t.Errorf("duplicate test name %q", tc.Name)
		}
		seen[tc.Name] = true
		if n := len(tc.Threads); n < 1 || n > 2 {
			t.Errorf("%s: %d threads, corpus shapes use 1 or 2", tc.Name, n)
		}
	}
	if len(seen) < 12 {
		t.Errorf("corpus has %d tests, expected the full shape set (>=12)", len(seen))
	}
}

// TestCorpusDeterministic pins that two generator invocations agree.
func TestCorpusDeterministic(t *testing.T) {
	if !reflect.DeepEqual(Corpus(), Corpus()) {
		t.Fatal("Corpus() is not deterministic")
	}
}

// recEnv records the cpu.Env calls a program makes, in the shape the
// interpreter promises: one call per op, on the op's variable address.
type recEnv struct {
	cpu.Env
	calls []string
}

func (r *recEnv) Store(a memory.Addr, size int, v uint64) {
	r.calls = append(r.calls, fmt.Sprintf("Store(%#x, %d, %d)", a, size, v))
}

func (r *recEnv) Load(a memory.Addr, size int) uint64 {
	r.calls = append(r.calls, fmt.Sprintf("Load(%#x, %d)", a, size))
	return 0
}

func (r *recEnv) Flush(a memory.Addr) { r.calls = append(r.calls, fmt.Sprintf("Flush(%#x)", a)) }
func (r *recEnv) Fence()              { r.calls = append(r.calls, "Fence()") }

func (r *recEnv) CompareAndSwap(a memory.Addr, size int, old, new uint64) (uint64, bool) {
	r.calls = append(r.calls, fmt.Sprintf("CompareAndSwap(%#x, %d, %d, %d)", a, size, old, new))
	return old, true
}

// TestInterpreterCallsEnvPerOp pins the interpreter's contract on a test
// using every op kind: each op becomes exactly one cpu.Env call, with
// 8-byte accesses on the op's variable line.
func TestInterpreterCallsEnvPerOp(t *testing.T) {
	tst := &Test{
		Name:    "all-ops",
		Vars:    []string{"x", "y"},
		Threads: [][]Op{{St(vx, 3), Ld(vy), Fl(vx), Fn(), Cs(vy, 0, 4)}},
	}
	if err := tst.Validate(); err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(tst)
	w.addrs = []memory.Addr{0x1000, 0x1040}
	var r recEnv
	w.Programs(workload.Params{Threads: 1})[0](&r)
	want := []string{
		"Store(0x1000, 8, 3)", "Load(0x1040, 8)", "Flush(0x1000)", "Fence()", "CompareAndSwap(0x1040, 8, 0, 4)",
	}
	if !reflect.DeepEqual(r.calls, want) {
		t.Errorf("calls = %q\nwant    %q", r.calls, want)
	}
}

// TestOrderedBefore pins the durably-ordered-before relation on the MP
// variants: only flush+fence between the stores orders them.
func TestOrderedBefore(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"mp", false},       // nothing between the stores
		{"mp+flush", false}, // clwb without sfence orders nothing
		{"mp+fence", true},  // clwb x; sfence: x before y
	} {
		tst, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		st := tst.Stores()
		var x, y Store
		for _, s := range st {
			switch s.Var {
			case vx:
				x = s
			case vy:
				y = s
			}
		}
		if got := tst.OrderedBefore(x, y); got != tc.want {
			t.Errorf("%s: OrderedBefore(x,y) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStoresEpochs pins epoch assignment on the two-fence chain.
func TestStoresEpochs(t *testing.T) {
	tst, err := ByName("mp3+fence")
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, s := range tst.Stores() {
		got = append(got, s.Epoch)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("mp3+fence store epochs = %v, want %v", got, want)
	}
}

// TestWorkloadRunsEverySchemeAndChecks smoke-runs every corpus test
// to completion under every scheme; the recovery checker must accept the
// final image, and the final image must be the all-stores-latest outcome.
func TestWorkloadRunsEverySchemeAndChecks(t *testing.T) {
	for _, tc := range Corpus() {
		for _, s := range persistency.Schemes() {
			wl := NewWorkload(tc)
			cfg := system.DefaultConfig(s)
			p := workload.Params{Threads: len(tc.Threads), OpsPerThread: 1, Seed: 1}
			sys, _, _ := workload.RunToCrash(wl, s, cfg, p, 1<<40)
			if err := wl.Check(sys.Mem); err != nil {
				t.Errorf("%s/%s: %v", tc.Name, s, err)
			}
			// Only the battery schemes guarantee the completed run is
			// durable in full: PMEM loses unflushed cache lines at the
			// crash, BEP loses the open epoch.
			tr := persistency.TraitsOf(s)
			if tr.ExplicitPersist || tr.EpochMode {
				continue
			}
			out := wl.ReadOutcome(sys.Mem)
			for i := range tc.Vars {
				if out[i] == 0 && len(tc.WrittenVals(i)) > 0 {
					t.Errorf("%s/%s: var %s still 0 after completed run + flush-on-fail", tc.Name, s, tc.Vars[i])
				}
			}
		}
	}
}

// TestByNameResolvesViaWorkloadRegistry pins the Register hook: witness
// replay resolves litmus workloads by name, with fresh state per lookup.
func TestByNameResolvesViaWorkloadRegistry(t *testing.T) {
	a, err := workload.ByName("litmus/mp+fence")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("litmus/mp+fence")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("workload.ByName returned a shared litmus instance; replay needs fresh state")
	}
	if a.Name() != "litmus/mp+fence" {
		t.Fatalf("resolved %q", a.Name())
	}
	if _, err := workload.ByName("litmus/nope"); err == nil {
		t.Fatal("unknown litmus name resolved")
	}
}
