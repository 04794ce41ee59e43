package crashmc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// walkRecords walks c's machine through cycles and returns a live snapshot
// of each point, each in an image of its own.
func walkRecords(c Config, cycles []engine.Cycle) []*Record {
	var recs []*Record
	workload.WalkCrashPoints(c.Workload, c.Scheme, c.System, c.Params, cycles,
		func(_ int, sys *system.System, at engine.Cycle, finished bool) {
			recs = append(recs, Snapshot(sys, at, finished, nil))
		})
	return recs
}

// refCheckPoint is the validation CheckRecord replaces, built from the
// exported stages as bench/decompose.go builds it: Enumerate the point,
// then write every image into a clone of the base with ApplyOverlay, run
// check on it and revert it with RevertOverlay. The first violation is
// minimized over the same images. Every image is checked.
func refCheckPoint(rec *Record, b Bounds, check func(*memory.Memory) error) (distinct, violating int, vs []Violation) {
	enum := Enumerate(rec, b)
	m := rec.Base.Clone()
	judge := func(overlay []LineWrite) string {
		ApplyOverlay(m, overlay)
		defer RevertOverlay(m, rec.Base, overlay)
		if err := check(m); err != nil {
			return err.Error()
		}
		return ""
	}
	for _, img := range enum.Images {
		e := judge(img.Overlay)
		if e == "" {
			continue
		}
		violating++
		if len(vs) >= maxViolations {
			continue
		}
		v := Violation{Hash: img.Hash, Survivors: img.Survivors, Err: e}
		if len(vs) == 0 {
			v.Minimized, v.MinimizedErr = minimize(rec, v.Survivors, func(set []int) string {
				return judge(resolveImage(rec, set).Overlay)
			})
		}
		vs = append(vs, v)
	}
	return len(enum.Images), violating, vs
}

// TestMemoMatchesEveryImage requires the memoized validation to give what
// checking every image gives — the distinct and violating image counts
// and the recorded violations with their hashes, survivors, complaints and
// minimized witnesses — for every Table IV workload and a litmus test,
// under PMEM, BEP and BBB, with barriers and without.
func TestMemoMatchesEveryImage(t *testing.T) {
	litmus, err := workload.ByName("litmus/mp")
	if err != nil {
		t.Fatal(err)
	}
	wls := append(workload.Registry(), litmus)
	hits := 0
	for _, w := range wls {
		for _, s := range []persistency.Scheme{persistency.PMEM, persistency.BEP, persistency.BBB} {
			for _, noBarriers := range []bool{false, true} {
				c := mcConfig(w, s, noBarriers)
				// The array checkers read all 32,768 elements of every
				// image, so the points are cut at 16 images to keep the
				// reference quick under the race detector;
				// TestMemoRunsFewChecks compares a whole campaign.
				c.Bounds.MaxImages = 16
				cycles := workload.EvenCycles(c.FirstCrash, c.Step, c.Points)
				if w == litmus {
					c.Params = workload.Params{Threads: 2, OpsPerThread: 1, Seed: 1, NoBarriers: noBarriers}
					cycles = []engine.Cycle{40, 80, 120, 160, 240, 400}
				}
				checks := 0
				check := func(m *memory.Memory) error { checks++; return w.Check(m) }
				for _, rec := range walkRecords(c, cycles) {
					distinct, violating, vs := refCheckPoint(rec, c.Bounds, w.Check)
					checks = 0
					got := c.CheckRecord(rec, check)
					name := fmt.Sprintf("%s/%v/nobarriers=%v@%d", w.Name(), s, noBarriers, rec.CrashCycle)
					if got.DistinctImages != distinct || got.ViolatingImages != violating {
						t.Fatalf("%s: %d images, %d violating; checking every image gives %d and %d",
							name, got.DistinctImages, got.ViolatingImages, distinct, violating)
					}
					if !reflect.DeepEqual(got.Violations, vs) {
						t.Fatalf("%s: violations\n got %+v\nwant %+v", name, got.Violations, vs)
					}
					if checks < distinct {
						hits++
					}
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no point took a verdict from the memo; the test compares nothing")
	}
	t.Logf("%d points took verdicts from the memo", hits)
}

// TestMemoRunsFewChecks pins the memo's effect on the campaign it was
// built for: the barrier-free BEP linked list at the benchmark's size,
// whose checker reads two or three of a point's pending lines, runs its
// checker on at most 1% of the images, and rejects the images, and records
// the violations, that checking every one does.
func TestMemoRunsFewChecks(t *testing.T) {
	c := mcConfig(workload.NewLinkedList(), persistency.BEP, true)
	c.Params.OpsPerThread = 150
	c.Points, c.Step = 40, 3_250
	checks, images, violating, want := 0, 0, 0, 0
	for _, rec := range walkRecords(c, workload.EvenCycles(c.FirstCrash, c.Step, c.Points)) {
		_, v, vs := refCheckPoint(rec, c.Bounds, c.Workload.Check)
		want += v
		res := c.CheckRecord(rec, func(m *memory.Memory) error { checks++; return c.Workload.Check(m) })
		if !reflect.DeepEqual(res.Violations, vs) {
			t.Fatalf("@%d: violations\n got %+v\nwant %+v", rec.CrashCycle, res.Violations, vs)
		}
		images += res.DistinctImages
		violating += res.ViolatingImages
	}
	if images < 100_000 || 100*checks > images {
		t.Fatalf("%d checks over %d images; want at most 1%% of at least 100,000", checks, images)
	}
	if violating != want {
		t.Fatalf("%d violating images; checking every image gives %d", violating, want)
	}
	t.Logf("%d checks over %d images, %d violating", checks, images, violating)
}

// TestMemoPanicsOnBrokenContract requires a check whose reads depend on
// something besides the image — here, how often it has been called — to
// stop validation with the contract's name instead of being memoized into
// wrong verdicts, and a check that panics to leave the record's base as it
// found it: checking the same record again must give a fresh record's
// result.
func TestMemoPanicsOnBrokenContract(t *testing.T) {
	pending := []PendingWrite{freeWrite(0, 1), freeWrite(1, 2), freeWrite(2, 3)}
	c := Config{Workload: workload.NewLinkedList()} // names the witnesses
	// good reads line 1 only when line 0 holds its pending write, so its
	// reads branch, and rejects line 0 written without line 1.
	good := func(m *memory.Memory) error {
		if m.Peek64(addr(0)) != 0 && m.Peek64(addr(1)) == 0 {
			return fmt.Errorf("line 0 without line 1")
		}
		return nil
	}
	want := c.CheckRecord(testRecord(pending), good)
	for _, tc := range []struct {
		name  string
		check func(calls int, m *memory.Memory)
		panic string
	}{
		{"reordered reads", func(calls int, m *memory.Memory) {
			if calls%2 == 0 {
				m.Peek64(addr(0))
			}
			m.Peek64(addr(1))
			m.Peek64(addr(0))
		}, "broke the CheckRecord contract"},
		{"fewer reads", func(calls int, m *memory.Memory) {
			if calls == 0 {
				m.Peek64(addr(0))
			}
		}, "broke the CheckRecord contract"},
		{"panicking check", func(calls int, m *memory.Memory) {
			if m.Peek64(addr(0)) != 0 || m.Peek64(addr(1)) != 0 || m.Peek64(addr(2)) != 0 {
				panic("check failed on a written line")
			}
		}, "check failed"},
	} {
		// Three pending lines, of which a contract case's first check reads
		// at most two, so the memo stays on.
		rec := testRecord(pending)
		calls := 0
		check := func(m *memory.Memory) error {
			tc.check(calls, m)
			calls++
			return nil
		}
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, tc.panic) {
					t.Errorf("%s: CheckRecord recovered %q after %d checks, want %q", tc.name, r, calls, tc.panic)
				}
			}()
			c.CheckRecord(rec, check)
		}()
		if got := c.CheckRecord(rec, good); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the record checked again after the panic gave\n%+v\nwant a fresh record's\n%+v", tc.name, got, want)
		}
	}
}

// FuzzMemo checks the memo against checking every image on small records
// (fuzzRecord's) with a synthetic check whose reads branch on the values
// it reads: it walks the four lines, choosing the next from a hash of the
// words read so far, for a data-chosen number of steps, and rejects the
// image on the hash. So paths of the decision tree have different lengths
// and orders, and lines repeat on them.
func FuzzMemo(f *testing.F) {
	for _, seed := range [][]byte{
		{0x0b, 0x01, 0x05, 0x06, 0x05, 0x00, 0x0a, 0x0f, 0x04},
		{0x0b, 0x14, 0x39, 0x51, 0x18, 0x74, 0x54, 0x32},
		{0x01, 0x04, 0x09, 0x0e, 0x07},
		{0x4b, 0x05, 0x09, 0x0d, 0x11, 0x15, 0x19, 0x1d, 0x21, 0x25},
	} {
		f.Add(seed)
	}
	c := Config{Workload: workload.NewLinkedList()} // names the witnesses
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, b := fuzzRecord(data)
		c.Bounds = b
		var seed uint64
		for _, x := range data {
			seed = seed*131 + uint64(x)
		}
		check := branchingCheck(seed, 4)
		distinct, violating, vs := refCheckPoint(rec, b, check)
		got := c.CheckRecord(rec, check)
		if got.DistinctImages != distinct || got.ViolatingImages != violating || !reflect.DeepEqual(got.Violations, vs) {
			t.Fatalf("%d images, %d violating, violations %+v; checking every image gives %d, %d, %+v",
				got.DistinctImages, got.ViolatingImages, got.Violations, distinct, violating, vs)
		}
	})
}

// branchingCheck returns a synthetic check over lines 0 to lines-1 whose
// reads branch on the values it reads: it starts at a line seed picks and
// walks, choosing the next line from a hash of the words read so far, for
// a seed-chosen number of steps, and rejects the image on the hash.
func branchingCheck(seed uint64, lines int) func(m *memory.Memory) error {
	n := uint64(lines)
	return func(m *memory.Memory) error {
		h, l := seed, int(seed%n)
		for range 1 + seed%5 {
			h = h*31 + m.Peek64(addr(l))
			l = int(h >> 7 % n)
		}
		if h%3 == 0 {
			return fmt.Errorf("hash %#x", h)
		}
		return nil
	}
}

// TestWideRecords runs records of more than 64 pending writes, whose
// survival sets span two mask words, through Enumerate and CheckRecord and
// requires the reference enumerator's and the every-image validation's
// results. One record is all free writes, enumerated within two flips of
// either extreme; the other mixes free writes with two cores' epoch
// writes, and its fastest-moving group, the second core, has writes in the
// second word. The writes share 24 lines, some of them with the base
// bytes, so the dedupe key set and the memo's newest-first probe see
// overwritten lines.
func TestWideRecords(t *testing.T) {
	const lines = 24
	free := make([]PendingWrite, 70)
	for i := range free {
		free[i] = PendingWrite{Addr: addr(i * 7 % lines), Data: lineData(byte(i % 5)), Class: ClassFree, Core: -1, Seq: i}
	}
	mixed := make([]PendingWrite, 72)
	for i := range mixed {
		mixed[i] = PendingWrite{Addr: addr(i * 7 % lines), Data: lineData(byte(i % 5)), Class: ClassFree, Core: -1, Seq: i}
		if c := i%3 - 1; c >= 0 { // four epochs of six writes per core
			mixed[i].Class, mixed[i].Core, mixed[i].Epoch = ClassEpoch, c, uint64(1+i/18)
		}
	}
	c := Config{Workload: workload.NewLinkedList()} // names the witnesses
	for _, tc := range []struct {
		name    string
		pending []PendingWrite
		b       Bounds
	}{
		{"free", free, Bounds{MaxFlips: 2, MaxImages: 1 << 13}},
		{"mixed", mixed, Bounds{MaxFlips: 1}},
	} {
		rec := testRecord(tc.pending)
		got, want := Enumerate(rec, tc.b), refEnumerate(rec, tc.b)
		if got.SetsSkipped == 0 || len(got.Images) < 1000 {
			t.Fatalf("%s: %d sets, %d skipped, %d images: the record does not exercise the bounds", tc.name, got.Sets, got.SetsSkipped, len(got.Images))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d sets, %d skipped, %d images; the reference gives %d, %d, %d (or the images differ)",
				tc.name, got.Sets, got.SetsSkipped, len(got.Images), want.Sets, want.SetsSkipped, len(want.Images))
		}
		c.Bounds = tc.b
		for seed := uint64(1); seed <= 3; seed++ {
			check := branchingCheck(seed, lines)
			distinct, violating, vs := refCheckPoint(rec, tc.b, check)
			res := c.CheckRecord(rec, check)
			if res.DistinctImages != distinct || res.ViolatingImages != violating || !reflect.DeepEqual(res.Violations, vs) {
				t.Fatalf("%s, seed %d: %d images, %d violating, violations %+v; checking every image gives %d, %d, %+v",
					tc.name, seed, res.DistinctImages, res.ViolatingImages, res.Violations, distinct, violating, vs)
			}
			t.Logf("%s, seed %d: %d sets, %d images, %d violating", tc.name, seed, res.Sets, distinct, violating)
		}
	}
}

// TestMemoHitResolvesNothing requires an image whose verdict the memo
// gives to be judged straight from its survival set mask, without
// resolving the set. Three writes on lines of their own (so the stream
// keeps no dedupe key) are judged by a check that reads line 0 only: the
// first two images are checked and the other six, the last among them,
// take the memo's verdicts, so the stream's resolver must be left
// unresolved.
func TestMemoHitResolvesNothing(t *testing.T) {
	rec := testRecord([]PendingWrite{freeWrite(0, 1), freeWrite(1, 2), freeWrite(2, 3)})
	checks := 0
	check := func(m *memory.Memory) error { checks++; m.Peek64(addr(0)); return nil }
	var s scratch
	res := s.checkPoint(Config{}, rec, check)
	if res.DistinctImages != 8 || checks != 2 {
		t.Fatalf("%d images, %d checks; want 8 and 2", res.DistinctImages, checks)
	}
	if s.r.resolved {
		t.Fatal("the last image's verdict came from the memo, but its set was resolved")
	}
}
