package bbb

import (
	"io"
	"reflect"
	"testing"

	"bbb/internal/sweep"
)

// kvOptions is the golden service configuration: offered load (the
// schedule's ~720-cycle mean interarrival) sits between the PMEM
// baseline's saturated per-request cost and the battery schemes', so the
// explicit-flush stalls surface as queueing delay rather than vanishing
// into idle time.
func kvOptions() Options {
	return Options{Clients: 4, OpsPerThread: 300, Seed: 1}
}

// TestKVServiceLatencyGolden pins the paper's argument at the service
// level: at equal offered load, the PMEM baseline's flush+fence stalls
// push client-observed latency well above BBB's — the measured margins are
// ~1.7x at p50 and ~1.15x at p99, pinned here with slack. EADR must land
// with BBB (same battery-complete lowering; only capacity effects differ).
func TestKVServiceLatencyGolden(t *testing.T) {
	o := kvOptions()
	pmem := MustRun("kv", SchemePMEM, o)
	bbb := MustRun("kv", SchemeBBB, o)
	eadr := MustRun("kv", SchemeEADR, o)

	for _, r := range []Result{pmem, bbb, eadr} {
		if r.Metrics == nil || r.Metrics.Hist("kv.lat") == nil {
			t.Fatal("service run missing kv.lat histogram")
		}
		if got, want := r.Metrics.Hist("kv.lat").Count(), uint64(o.Clients*o.OpsPerThread); got != want {
			t.Fatalf("kv.lat holds %d samples, want %d", got, want)
		}
	}

	p50 := func(r Result) float64 { return r.Metrics.Hist("kv.lat").P50() }
	p99 := func(r Result) float64 { return r.Metrics.Hist("kv.lat").P99() }
	if r := p50(pmem) / p50(bbb); r < 1.3 {
		t.Errorf("p50 ratio pmem/bbb = %.2f, want >= 1.3 (pmem %.0f, bbb %.0f cycles)", r, p50(pmem), p50(bbb))
	}
	if r := p99(pmem) / p99(bbb); r < 1.1 {
		t.Errorf("p99 ratio pmem/bbb = %.2f, want >= 1.1 (pmem %.0f, bbb %.0f cycles)", r, p99(pmem), p99(bbb))
	}
	if r := p99(eadr) / p99(bbb); r < 0.8 || r > 1.25 {
		t.Errorf("p99 ratio eadr/bbb = %.2f, want ~1 (both battery-complete)", r)
	}
}

// TestKVServiceStreamingCarriesServiceMetrics pins that every harness mode
// folds service metrics the same way a plain Run does: a streamed kv run
// (the bbbkv -trace-out path) must surface the kv.* histograms and the
// kv.lat.win timeline, identical to the plain run's, and a crashed one
// (bbbtrace record -crash) must still carry kv.lat for the requests that
// completed before the crash.
func TestKVServiceStreamingCarriesServiceMetrics(t *testing.T) {
	o := Options{Clients: 2, OpsPerThread: 60, Seed: 1}
	plain := MustRun("kv", SchemeBBB, o)
	so := o
	so.Trace = io.Discard
	streamed, err := Run("kv", SchemeBBB, so)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{plain, streamed} {
		if r.Metrics == nil || r.Metrics.Hist("kv.lat") == nil {
			t.Fatal("run missing kv.lat histogram")
		}
		if r.Metrics.Windowed("kv.lat.win") == nil {
			t.Fatal("run missing kv.lat.win windowed series")
		}
	}
	if a, b := plain.Metrics.Hist("kv.lat"), streamed.Metrics.Hist("kv.lat"); !reflect.DeepEqual(a, b) {
		t.Fatalf("streamed kv.lat differs from plain run's:\n%+v\n%+v", a, b)
	}
	if a, b := plain.Metrics.Windowed("kv.lat.win").Snapshots(), streamed.Metrics.Windowed("kv.lat.win").Snapshots(); !reflect.DeepEqual(a, b) {
		t.Fatalf("streamed kv.lat.win differs from plain run's:\n%+v\n%+v", a, b)
	}

	co := so
	co.CrashAt = Cycle(plain.Cycles / 2)
	crashed, err := Run("kv", SchemeBBB, co)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Metrics == nil || crashed.Metrics.Hist("kv.lat") == nil {
		t.Fatal("crashed kv run missing kv.lat histogram")
	}
	if n, all := crashed.Metrics.Hist("kv.lat").Count(), plain.Metrics.Hist("kv.lat").Count(); n == 0 || n >= all {
		t.Fatalf("crash at cycle %d kept %d of %d kv.lat samples, want some but not all", co.CrashAt, n, all)
	}
}

// TestKVServiceSweepWidthDeterministic pins that the service tier is a
// pure function of its parameters under parallel fan-out: the same
// (workload, scheme) matrix run serially and at width 4 must produce
// deep-equal Results, histograms included.
func TestKVServiceSweepWidthDeterministic(t *testing.T) {
	o := Options{Clients: 3, OpsPerThread: 80, Seed: 7}
	combos := []struct {
		w string
		s Scheme
	}{
		{"kv", SchemePMEM}, {"kv", SchemeBBB}, {"kv", SchemeBEP},
		{"kv/uniform", SchemeBBB},
	}
	run := func(width int) []Result {
		return sweep.Map(width, len(combos), func(i int) Result {
			return MustRun(combos[i].w, combos[i].s, o)
		})
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Fatal("service results differ between sweep widths 1 and 4")
	}
}
