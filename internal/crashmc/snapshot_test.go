package crashmc

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// sameRecord reports how a live snapshot differs from a fresh capture:
// Base is compared byte for byte over the union of both images' pages
// (restoring a line can materialize a zero page the capture never had),
// every other field by deep equality.
func sameRecord(got, want *Record) error {
	pages := map[memory.Addr]bool{}
	for _, m := range []*memory.Memory{got.Base, want.Base} {
		for _, p := range m.PageBases() {
			pages[p] = true
		}
	}
	for p := range pages {
		if !bytes.Equal(got.Base.Peek(p, memory.PageSize), want.Base.Peek(p, memory.PageSize)) {
			return fmt.Errorf("base image differs in page %#x", p)
		}
	}
	g, w := *got, *want
	g.Base, w.Base = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("record differs:\n got: %+v\nwant: %+v", g, w)
	}
	return nil
}

// TestSnapshotEqualsCapture walks one machine per campaign through its
// crash points and requires every live Snapshot to equal BuildToCrash +
// Capture on a fresh machine — pending set, domain lines, drain report,
// completion flag and base image — for every Table IV workload, scheme
// and barrier mode. The points run past completion for the short
// workloads, so finished machines are covered too.
func TestSnapshotEqualsCapture(t *testing.T) {
	const (
		first  = 2_000
		step   = 15_000
		points = 6
	)
	for _, proto := range workload.Registry() {
		for _, s := range persistency.Schemes() {
			for _, noBarriers := range []bool{false, true} {
				c := mcConfig(proto, s, noBarriers)
				workload.WalkCrashPoints(proto, s, c.System, c.Params, first, step, points, 1,
					func(_ workload.Workload, sys *system.System, at engine.Cycle, finished bool) struct{} {
						got := Snapshot(sys, at, finished)
						w, err := workload.ByName(proto.Name())
						if err != nil {
							t.Fatal(err)
						}
						fresh, freshFinished := workload.BuildToCrash(w, s, c.System, c.Params, at)
						if err := sameRecord(got, Capture(fresh, at, freshFinished)); err != nil {
							t.Errorf("%s/%s nobarriers=%t @%d: %v", proto.Name(), s, noBarriers, at, err)
						}
						return struct{}{}
					})
			}
		}
	}
}

// TestSnapshotsDoNotDisturbRun snapshots and model-checks a traced machine
// at several points, runs it to completion, and requires the Result —
// counters, histograms and gauges included — and the retained trace to
// equal an uninterrupted run's.
func TestSnapshotsDoNotDisturbRun(t *testing.T) {
	for _, name := range []string{"linkedlist", "hashmap", "swapNC"} {
		for _, s := range persistency.Schemes() {
			proto, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := mcConfig(proto, s, true)
			c.System.TraceCapacity = 4096

			refW, _ := workload.ByName(name)
			refSys, progs := workload.Build(refW, s, c.System, c.Params)
			want := refSys.Run(progs)

			w, _ := workload.ByName(name)
			sys, progs := workload.Build(w, s, c.System, c.Params)
			sys.Start(progs)
			for at := engine.Cycle(3_000); at < 60_000; at += 9_000 {
				checkPoint(w, c, Bounds{MaxImages: 64}.withDefaults(), 4, Snapshot(sys, at, sys.Advance(at)))
			}
			if !sys.Advance(^engine.Cycle(0)) {
				t.Fatalf("%s/%s: programs did not finish", name, s)
			}
			sys.NVMM.CrashDrain()
			got := sys.ResultAfterCrash()
			sys.Shutdown()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: snapshotted run's Result differs from an uninterrupted run's", name, s)
			}
			if !reflect.DeepEqual(sys.Trace().Events(), refSys.Trace().Events()) {
				t.Errorf("%s/%s: snapshotted run's trace differs from an uninterrupted run's", name, s)
			}
		}
	}
}
