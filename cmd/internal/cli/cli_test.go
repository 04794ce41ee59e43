package cli

import (
	"encoding/json"
	"flag"
	"reflect"
	"runtime"
	"testing"

	"bbb"
	"bbb/internal/obs"
)

func parse(t *testing.T, s Spec, args ...string) *Run {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	r := s.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCombosOrderAndTrim pins the matrix order (workload-major, schemes in
// list order) and that space around list items is trimmed.
func TestCombosOrderAndTrim(t *testing.T) {
	r := parse(t, Sim, "-workload", "rtree, hashmap", "-scheme", "pmem , bbb,eadr")
	got, err := r.Combos()
	if err != nil {
		t.Fatal(err)
	}
	want := []Combo{
		{"rtree", bbb.SchemePMEM}, {"rtree", bbb.SchemeBBB}, {"rtree", bbb.SchemeEADR},
		{"hashmap", bbb.SchemePMEM}, {"hashmap", bbb.SchemeBBB}, {"hashmap", bbb.SchemeEADR},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("combos = %v, want %v", got, want)
	}
}

func TestUnknownScheme(t *testing.T) {
	r := parse(t, Sim, "-scheme", "bbb,nosuch")
	if _, err := r.Combos(); err == nil {
		t.Fatal("unknown scheme in the list parsed without error")
	}
	if _, err := Schemes("pmem,,bbb"); err == nil {
		t.Fatal("empty list item parsed without error")
	}
}

// TestSpecDefaults pins each command's run-flag defaults, that flags a
// command does not declare are not registered, and that explicit values
// override the defaults.
func TestSpecDefaults(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name          string
		spec          Spec
		ops, threads  int
		parallel      int
		seed          int64
		workload, sch string
	}{
		{"bbbsim", Sim, 1000, 8, procs, 1, "hashmap", "bbb"},
		{"bbbmc", MC, 150, 2, procs, 0, "", ""},
		{"bbbkv", KV, 400, 4, procs, 1, "kv", "pmem,eadr,bbb,bbb-proc,bep,nvcache"},
		{"bbbench", Bench, 300, 8, procs, 0, "", ""},
		{"bbblitmus conform", Litmus, 0, 0, procs, 0, "", ""},
		{"bbbvet", Vet, 0, 2, 0, 0, "", ""},
	} {
		r := parse(t, c.spec)
		if r.Ops != c.ops || r.Threads != c.threads || r.Parallel != c.parallel || r.Seed != c.seed ||
			r.Workload != c.workload || r.Scheme != c.sch || r.NoBarriers {
			t.Errorf("%s defaults = %+v", c.name, *r)
		}
	}

	fs := flag.NewFlagSet("bbbench", flag.ContinueOnError)
	Bench.Register(fs)
	for _, name := range []string{"workload", "scheme", "seed", "no-barriers"} {
		if fs.Lookup(name) != nil {
			t.Errorf("bbbench declares -%s", name)
		}
	}

	// The trace recordings the docs and `make trace-smoke` use pass their
	// scale explicitly.
	r := parse(t, Sim, "-ops", "200", "-threads", "4", "-no-barriers", "-parallel", "1")
	if r.Ops != 200 || r.Threads != 4 || !r.NoBarriers || r.Parallel != 1 {
		t.Errorf("explicit values not taken: %+v", *r)
	}
	o := r.Options()
	if o.OpsPerThread != 200 || o.Threads != 4 || !o.NoBarriers || o.Seed != 1 || o.Parallelism != 1 {
		t.Errorf("Options() = %+v", o)
	}
}

// FuzzParseBench drives the BENCH loader bbbregress reads through: it
// returns an error, or the flattened run survives a write-and-reparse
// unchanged and compares against itself without panicking.
func FuzzParseBench(f *testing.F) {
	for _, seed := range []string{
		`{"goos":"linux","results":[{"name":"BenchmarkB","iterations":10,"metrics":{"ns/op":100,"sim_stores/s":1000}},{"name":"BenchmarkA","iterations":10,"metrics":{"allocs/op":210}}]}`,
		`{"goos":"linux","results":[]}`,
		`{"results":[{"name":"BenchmarkA","metrics":{"ns/op":1}},{"name":"BenchmarkA","metrics":{"ns/op":2}}]}`,
		`{"results":[{"name":"BenchmarkA","metrics":{"ns/op":"fast"}}]}`,
		`{"results":[{"name":"BenchmarkA","iterations":10,"metr`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := ParseBench(data, "fuzz")
		if err != nil {
			return
		}
		var doc BenchDoc
		for _, b := range run.Benches {
			r := BenchResult{Name: b.Name, Metrics: map[string]float64{}}
			for _, m := range b.Metrics {
				r.Metrics[m.Name] = m.Value
			}
			doc.Results = append(doc.Results, r)
		}
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("re-encoding a parsed document: %v", err)
		}
		again, err := ParseBench(blob, "fuzz")
		if err != nil {
			t.Fatalf("re-parsing %s: %v", blob, err)
		}
		if !reflect.DeepEqual(run, again) {
			t.Fatalf("round trip changed the run:\n%+v\n%+v", run, again)
		}
		obs.Compare([]obs.BenchRun{run}, run, obs.RegressOptions{})
	})
}
