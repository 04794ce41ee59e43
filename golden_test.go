package bbb

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbb/internal/crashmc"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/sweep"
	"bbb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

const resultsGoldenPath = "testdata/results.golden"

// goldenTracedSeed is the seed run with a bounded trace, so its Result
// carries Metrics and the golden pins the histograms and gauges too.
const goldenTracedSeed = 3

// goldenWorkloads is every workload the experiment drivers can run: the
// Table IV rows, the extras, and the service tier registered by
// internal/pds and internal/kvservice.
func goldenWorkloads() []string {
	var names []string
	for _, w := range append(workload.Registry(), workload.Extras()...) {
		names = append(names, w.Name())
	}
	return append(names, "pds/queue", "pds/hashmap", "pds/hashresize", "pds/skiplist", "kv", "kv/uniform")
}

// encodeResult renders every field of r through exported accessors, in a
// fixed order, so the encoding is canonical: no pointers, and the
// Counters/Metrics contents rather than their (unexported) layout.
func encodeResult(r Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "scheme %s\ncycles %d\nnvmm_writes %d\nrejections %d\ndrains %d\nforced_drains %d\n",
		r.Scheme, r.Cycles, r.NVMMWrites, r.Rejections, r.Drains, r.ForcedDrains)
	fmt.Fprintf(&b, "skipped_writebacks %d\nstores %d\npersisting_stores %d\nloads %d\nstall_cycles %d\ndirty_fraction %v\n",
		r.SkippedWritebacks, r.Stores, r.PersistingStores, r.Loads, r.StallCycles, r.DirtyFraction)
	w := r.Wear
	fmt.Fprintf(&b, "wear %d %d %d %d %v %d\n", w.LinesWritten, w.TotalWrites, w.MaxWrites, w.MaxLine, w.MeanWrites, w.P99Writes)
	if r.Counters != nil {
		for _, n := range r.Counters.Names() {
			fmt.Fprintf(&b, "counter %s %d\n", n, r.Counters.Get(n))
		}
	}
	fmt.Fprintf(&b, "metrics %t\n%s", r.Metrics != nil, r.Metrics.String())
	return b.Bytes()
}

// encodeCrash renders a captured crash record and its enumerated image
// space: the pending persistence-domain writes, the post-drain base image
// page by page, and every distinct reachable image's survivors and hash.
func encodeCrash(rec *crashmc.Record, enum crashmc.Enumeration) []byte {
	var b bytes.Buffer
	d := rec.Drain
	fmt.Fprintf(&b, "scheme %s\ncrash %d\nfinished %t\ndomain_lines %d\n", rec.Scheme, rec.CrashCycle, rec.Finished, rec.DomainLines)
	fmt.Fprintf(&b, "drain %d %d %d %d %d\n", d.WPQLines, d.BufLines, d.CacheLines, d.SBStores, d.LostLines)
	for _, p := range rec.Pending {
		fmt.Fprintf(&b, "pending %#x %x %s %d %d %d\n", p.Addr, p.Data, p.Class, p.Core, p.Epoch, p.Seq)
	}
	for _, base := range rec.Base.PageBases() {
		fmt.Fprintf(&b, "page %#x %x\n", base, sha256.Sum256(rec.Base.Peek(base, memory.PageSize)))
	}
	fmt.Fprintf(&b, "sets %d skipped %d\n", enum.Sets, enum.SetsSkipped)
	for _, img := range enum.Images {
		fmt.Fprintf(&b, "image %v %x\n", img.Survivors, img.Hash)
	}
	return b.Bytes()
}

// goldenLines computes the golden file's lines: one sha256 per (workload,
// scheme, seed) run at scaled(60), and one per (workload, scheme) crash
// captured halfway through the seed-1 run. Points run on a small worker
// pool and are joined in index order, so the output is deterministic.
func goldenLines() []string {
	names := goldenWorkloads()
	schemes := persistency.Schemes()
	per := func(i int) (string, Scheme) { return names[i/len(schemes)], schemes[i%len(schemes)] }
	groups := sweep.Map(2, len(names)*len(schemes), func(i int) []string {
		name, s := per(i)
		var lines []string
		var firstCycles Cycle
		for seed := int64(1); seed <= 3; seed++ {
			o := scaled(60)
			o.Seed = seed
			if seed == goldenTracedSeed {
				o.TraceCapacity = 64
			}
			res := MustRun(name, s, o)
			if seed == 1 {
				firstCycles = res.Cycles
			}
			lines = append(lines, fmt.Sprintf("run %s %s seed=%d %x", name, s, seed, sha256.Sum256(encodeResult(res))))
		}
		o := scaled(60)
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		crashAt := firstCycles / 2
		sys, finished := workload.BuildToCrash(w, s, o.sysConfig(s), o.params(), crashAt)
		rec := crashmc.Capture(sys, crashAt, finished)
		enum := crashmc.Enumerate(rec, crashmc.DefaultBounds())
		lines = append(lines, fmt.Sprintf("crash %s %s @%d %x", name, s, crashAt, sha256.Sum256(encodeCrash(rec, enum))))
		return lines
	})
	var out []string
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// TestResultsGolden pins every user-visible simulation output byte for
// byte: Results (stats, counters, metrics, cycle counts) for every
// workload × scheme × seed, and the crash-image record plus reachable
// image space at one mid-run crash per workload × scheme. Refactors of
// the execution machinery must leave this file unchanged; regenerate it
// with `go test -run TestResultsGolden -update .` only for a deliberate
// change to simulated behaviour.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x scheme x seed matrix")
	}
	checkGoldenLines(t, resultsGoldenPath, goldenLines())
}

// checkGoldenLines compares got with the golden file at path line by line,
// or rewrites the file under -update.
func checkGoldenLines(t *testing.T, path string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, run produced %d (regenerate deliberately with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d diverged:\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
}

const harnessGoldenPath = "testdata/harness.golden"

// harnessCase is one run through Run's harness modes; the Options' Trace
// writer is filled in per run.
type harnessCase struct {
	name     string
	workload string
	scheme   Scheme
	o        Options
}

// harnessCases covers every harness mode — invariant audit, bounded text
// tail, JSON-lines stream and crash with flush-on-fail — on a battery
// scheme, the barrier-free PMEM variant and the service tier.
func harnessCases() []harnessCase {
	hm := scaled(40)
	check, tail, crash := hm, hm, hm
	check.Check = true
	tail.TraceCapacity = 32
	crash.CrashAt = 20_000
	ll := scaled(40)
	ll.NoBarriers = true
	llCrash := ll
	llCrash.CrashAt = 20_000
	kv := Options{Threads: 2, OpsPerThread: 60, Seed: 1}
	return []harnessCase{
		{"hashmap/bbb check", "hashmap", SchemeBBB, check},
		{"hashmap/bbb tail 32", "hashmap", SchemeBBB, tail},
		{"hashmap/bbb stream", "hashmap", SchemeBBB, hm},
		{"hashmap/bbb crash@20000", "hashmap", SchemeBBB, crash},
		{"linkedlist/pmem no-barriers stream", "linkedlist", SchemePMEM, ll},
		{"linkedlist/pmem no-barriers crash@20000", "linkedlist", SchemePMEM, llCrash},
		{"kv/bbb stream", "kv", SchemeBBB, kv},
	}
}

// TestHarnessGolden pins every harness mode byte for byte: one sha256 per
// case over the encoded Result followed by everything the run wrote to
// its trace writer. Regenerate with `go test -run TestHarnessGolden
// -update .` only for a deliberate change to what a mode records.
func TestHarnessGolden(t *testing.T) {
	var got []string
	for _, c := range harnessCases() {
		var buf bytes.Buffer
		if !c.o.Check {
			c.o.Trace = &buf
		}
		res, err := Run(c.workload, c.scheme, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, fmt.Sprintf("%s %x", c.name, sha256.Sum256(append(encodeResult(res), buf.Bytes()...))))
	}
	checkGoldenLines(t, harnessGoldenPath, got)
}

const experimentsGoldenPath = "testdata/experiments.golden"

// TestExperimentsGolden pins every figure and table driver's output byte
// for byte: one sha256 per driver over the JSON of what it returns, at
// scaled(60) on two workers. Regenerate with `go test -run
// TestExperimentsGolden -update .` only for a deliberate change to what a
// driver computes.
func TestExperimentsGolden(t *testing.T) {
	o := scaled(60)
	o.Parallelism = 2
	cmp, err := RunSchemeComparison("hashmap", o)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range []struct {
		name string
		out  any
	}{
		{"fig7", RunFig7(o)},
		{"procside", ProcSideWriteRatio(o)},
		{"fig8", RunFig8(o, Fig8Sizes)},
		{"table4", RunTable4(o)},
		{"schemes hashmap", cmp},
	} {
		data, err := json.Marshal(d.out)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		got = append(got, fmt.Sprintf("%s %x", d.name, sha256.Sum256(data)))
	}
	checkGoldenLines(t, experimentsGoldenPath, got)
}
