package bbb

import (
	"reflect"
	"slices"
	"testing"

	"bbb/internal/persistency"
	"bbb/internal/sweep"
	"bbb/internal/workload"
)

// TestConcurrentSimsIndependent runs two simulations on plain goroutines
// and checks each against a serial rerun. Under `go test -race` this is
// the shared-mutable-state audit made executable: every machine must be
// fully private to its goroutine, and concurrency must not perturb the
// deterministic results.
func TestConcurrentSimsIndependent(t *testing.T) {
	o := scaled(100)
	type run struct {
		workload string
		scheme   Scheme
	}
	runs := []run{{"hashmap", SchemeBBB}, {"rtree", SchemeEADR}}

	concurrent := make([]Result, len(runs))
	done := make(chan int, len(runs))
	for i, r := range runs {
		go func(i int, r run) {
			concurrent[i] = MustRun(r.workload, r.scheme, o)
			done <- i
		}(i, r)
	}
	for range runs {
		<-done
	}

	for i, r := range runs {
		serial := MustRun(r.workload, r.scheme, o)
		if !reflect.DeepEqual(concurrent[i], serial) {
			t.Errorf("%s/%s: concurrent run diverged from serial rerun\nconcurrent: %+v\nserial:     %+v",
				r.workload, r.scheme, concurrent[i], serial)
		}
	}
}

// TestParallelSweepMatchesSerial asserts the byte-identical-output contract
// of the sweep runner on a Fig7-sized matrix: every Table IV workload under
// every scheme, two seeds each, run serially and then with four workers.
// Each index slot must deep-equal its serial counterpart.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x scheme x seed matrix")
	}
	schemes := persistency.Schemes()
	workloads := Workloads()
	seeds := []int64{1, 2}
	n := len(workloads) * len(schemes) * len(seeds)
	point := func(i int) Result {
		o := scaled(60)
		o.Seed = seeds[i%len(seeds)]
		s := schemes[(i/len(seeds))%len(schemes)]
		w := workloads[i/(len(seeds)*len(schemes))]
		return MustRun(w, s, o)
	}

	serial := sweep.Map(1, n, point)
	parallel := sweep.Map(4, n, point)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d (workload %s, scheme %s, seed %d): parallel result differs from serial",
				i, workloads[i/(len(seeds)*len(schemes))],
				schemes[(i/len(seeds))%len(schemes)], seeds[i%len(seeds)])
		}
	}
}

// TestDriversParallelMatchesSerial checks every experiment driver end to
// end, and the grid runner under them: the same driver with Parallelism
// set must return a result deep-equal to its serial run.
func TestDriversParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("several full sweeps")
	}
	serialOpts := scaled(50)
	parOpts := serialOpts
	parOpts.Parallelism = 4

	t.Run("Table4", func(t *testing.T) {
		if got, want := RunTable4(parOpts), RunTable4(serialOpts); !reflect.DeepEqual(got, want) {
			t.Errorf("RunTable4 parallel != serial\ngot:  %+v\nwant: %+v", got, want)
		}
	})
	t.Run("Fig8", func(t *testing.T) {
		sizes := []int{8, 32}
		if got, want := RunFig8(parOpts, sizes), RunFig8(serialOpts, sizes); !reflect.DeepEqual(got, want) {
			t.Errorf("RunFig8 parallel != serial\ngot:  %+v\nwant: %+v", got, want)
		}
	})
	t.Run("Fig7", func(t *testing.T) {
		if got, want := RunFig7(parOpts), RunFig7(serialOpts); !reflect.DeepEqual(got, want) {
			t.Errorf("RunFig7 parallel != serial\ngot:  %+v\nwant: %+v", got, want)
		}
	})
	t.Run("ProcSide", func(t *testing.T) {
		if got, want := ProcSideWriteRatio(parOpts), ProcSideWriteRatio(serialOpts); got != want {
			t.Errorf("ProcSideWriteRatio parallel = %v, serial = %v", got, want)
		}
	})
	t.Run("SchemeComparison", func(t *testing.T) {
		got, err := RunSchemeComparison("hashmap", parOpts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunSchemeComparison("hashmap", serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RunSchemeComparison parallel != serial\ngot:  %+v\nwant: %+v", got, want)
		}
		_, unknown := workload.ByName("nosuch")
		if _, err := RunSchemeComparison("nosuch", parOpts); err == nil || err.Error() != unknown.Error() {
			t.Errorf("RunSchemeComparison(nosuch) error = %v, want workload.ByName's %q", err, unknown)
		}
	})
	t.Run("SeedSweep", func(t *testing.T) {
		// A seed-sweep grid with an unknown workload in its middle: the
		// Results and the joined error must not depend on the width.
		cells := seedSweepCells("hashmap", serialOpts, []int64{1, 2, 3})
		cells = slices.Insert(cells, 3, Cell{"nosuch", SchemeBBB, serialOpts})
		got, gotErr := RunGrid(cells, 4)
		want, wantErr := RunGrid(cells, 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RunGrid at width 4 != width 1\ngot:  %+v\nwant: %+v", got, want)
		}
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("RunGrid joined error at width 4 = %v, at width 1 = %v", gotErr, wantErr)
		}
	})
	t.Run("CrashCampaign", func(t *testing.T) {
		// The flush-on-fail campaign: one image per crash point.
		b := MCBounds{MaxImages: 1}
		got, err := ModelCheck("hashmap", SchemeBBB, parOpts, 6, 2_000, 4_000, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ModelCheck("hashmap", SchemeBBB, serialOpts, 6, 2_000, 4_000, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("flush-on-fail campaign parallel != serial\ngot:  %+v\nwant: %+v", got, want)
		}
	})
}
