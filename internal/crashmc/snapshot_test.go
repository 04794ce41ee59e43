package crashmc

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// sameRecord reports how a live snapshot differs from a fresh capture:
// Base is compared by sameBase, every other field by deep equality.
func sameRecord(got, want *Record) error {
	if err := sameBase(got.Base, want.Base); err != nil {
		return err
	}
	g, w := *got, *want
	g.Base, w.Base = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("record differs:\n got: %+v\nwant: %+v", g, w)
	}
	return nil
}

// sameBase compares two base images byte for byte over the union of their
// pages (restoring a line can materialize a zero page the other never had).
func sameBase(got, want *memory.Memory) error {
	pages := map[memory.Addr]bool{}
	for _, m := range []*memory.Memory{got, want} {
		for _, p := range m.PageBases() {
			pages[p] = true
		}
	}
	for p := range pages {
		if !bytes.Equal(got.Peek(p, memory.PageSize), want.Peek(p, memory.PageSize)) {
			return fmt.Errorf("base image differs in page %#x", p)
		}
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
				var base *memory.Memory
				workload.WalkCrashPoints(proto, s, c.System, c.Params, workload.EvenCycles(first, step, points),
					func(_ int, sys *system.System, at engine.Cycle, finished bool) {
						got := Snapshot(sys, at, finished, base)
						base = got.Base
						w, err := workload.ByName(proto.Name())
						if err != nil {
							t.Fatal(err)
						}
						fresh, freshFinished := workload.BuildToCrash(w, s, c.System, c.Params, at)
						if err := sameRecord(got, Capture(fresh, at, freshFinished)); err != nil {
							t.Errorf("%s/%s nobarriers=%t @%d: %v", proto.Name(), s, noBarriers, at, err)
						}
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
			c.Bounds = Bounds{MaxImages: 64}
			var base *memory.Memory
			for at := engine.Cycle(3_000); at < 60_000; at += 9_000 {
				rec := Snapshot(sys, at, sys.Advance(at), base)
				c.CheckRecord(rec, w.Check)
				base = rec.Base
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

// TestCheckPointRestoresBase model-checks barrier-free PMEM and BEP
// snapshots whose reachable images include violations, and requires
// CheckRecord to leave each snapshot's Base byte for byte as it found it:
// every streamed image and every set the first violation's minimization
// tries is written in place through the line pointers and must be restored
// from the base lines under it. The stream is cut after 1, 2, … sets up to
// the first violation, so that a restore the minimization gets wrong is not
// mended by the images streamed after it. Some pending lines sit on pages
// the base had not materialized, which binding the line pointers creates.
func TestCheckPointRestoresBase(t *testing.T) {
	for _, scheme := range []persistency.Scheme{persistency.PMEM, persistency.BEP} {
		c := mcConfig(workload.NewLinkedList(), scheme, true)
		minimized, fresh := 0, 0
		for _, at := range []engine.Cycle{4_000, 10_000, 16_000} {
			w := workload.NewLinkedList()
			sys, finished := workload.BuildToCrash(w, c.Scheme, c.System, c.Params, at)
			rec := Snapshot(sys, at, finished, nil)
			before := rec.Base.Clone()
			pages := before.PageBases()
			for _, p := range rec.Pending {
				if !slices.Contains(pages, p.Addr&^(memory.PageSize-1)) {
					fresh++
				}
			}
			for sets := 1; ; sets++ {
				c.Bounds = Bounds{MaxImages: sets}
				res := c.CheckRecord(rec, w.Check)
				if err := sameBase(rec.Base, before); err != nil {
					t.Fatalf("%s @%d, stream cut after %d sets (%d violating): CheckRecord changed the base image: %v",
						scheme, at, sets, res.ViolatingImages, err)
				}
				if res.Witness != nil {
					minimized++
					break
				}
				if res.SetsSkipped == 0 {
					break
				}
			}
		}
		if minimized == 0 {
			t.Errorf("%s: no crash point had a violation to minimize; the test checks nothing", scheme)
		}
		if fresh == 0 {
			t.Errorf("%s: no pending line sits on a page the base lacks; the test does not cover materializing one", scheme)
		}
	}
}
