package crashmc

import (
	"reflect"
	"testing"

	"bbb/internal/engine"
	_ "bbb/internal/kvservice" // registers kv
	_ "bbb/internal/litmus"    // registers the litmus/ corpus
	_ "bbb/internal/pds"       // registers pds/
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// mcConfig is the shared short-bounds campaign over the Figures 2/3
// linked list: tiny caches so persists reorder aggressively, few ops so
// enumeration stays fast.
func mcConfig(w workload.Workload, s persistency.Scheme, noBarriers bool) Config {
	cfg := system.DefaultConfig(s)
	cfg.Hierarchy.L1Size = 1024
	cfg.Hierarchy.L2Size = 4096
	p := workload.DefaultParams()
	p.Threads = 2
	p.OpsPerThread = 60
	p.NoBarriers = noBarriers
	return Config{
		Workload:   w,
		Scheme:     s,
		System:     cfg,
		Params:     p,
		FirstCrash: 4_000,
		Step:       6_000,
		Points:     3,
	}
}

func TestBatteryCompleteSchemesSingleImage(t *testing.T) {
	// The paper's claim (§III-D): when the battery covers the whole
	// persistence path, the reachable crash-state space is one image per
	// crash point — persist order equals program order.
	for _, s := range []persistency.Scheme{persistency.BBB, persistency.BBBProc, persistency.EADR, persistency.NVCache} {
		rep := mcConfig(workload.NewLinkedList(), s, true).Run()
		if !rep.SingleImage() {
			t.Errorf("%v: expected exactly one reachable image per crash point, got report %s", s, rep.String())
		}
		if rep.TotalViolating != 0 {
			t.Errorf("%v: violating images in a battery-complete scheme: %s", s, rep.String())
		}
		for _, p := range rep.Points {
			if p.Pending != 0 {
				t.Errorf("%v: %d enumerable pending writes at cycle %d; the persistence domain should cover them",
					s, p.Pending, p.CrashCycle)
			}
		}
	}
}

func TestPMEMNoBarriersFindsViolatingImage(t *testing.T) {
	// Figure 2: without barriers, some subset of surviving cache lines
	// strands a published head at an unpersisted node. The deterministic
	// crash image may be lucky; the model checker must find the corner.
	rep := mcConfig(workload.NewLinkedList(), persistency.PMEM, true).Run()
	if rep.TotalViolating == 0 {
		t.Fatalf("PMEM without barriers: no violating image in %d enumerated (%s)", rep.TotalDistinct, rep.String())
	}
	wit := rep.FirstWitness()
	if wit == nil {
		t.Fatal("violating campaign produced no witness")
	}
	if len(wit.Survivors) == 0 {
		t.Fatal("witness has no surviving writes")
	}
	if wit.Err == "" {
		t.Fatal("witness has no checker complaint")
	}
	// Minimality: the witness survived greedy elimination, so it should
	// be small — the Figure 2 bug needs only the dangling publish.
	if len(wit.Survivors) > 2 {
		t.Errorf("witness not minimal: %d survivors", len(wit.Survivors))
	}
}

func TestPMEMWithBarriersCleanAcrossReachableSet(t *testing.T) {
	// Figure 3: with clwb+sfence ordering, *every* reachable image must
	// check out, not just the deterministic one.
	rep := mcConfig(workload.NewLinkedList(), persistency.PMEM, false).Run()
	if rep.TotalViolating != 0 {
		t.Fatalf("PMEM with barriers: %d violating images (%s)", rep.TotalViolating, rep.String())
	}
	if rep.MaxPending == 0 {
		t.Fatal("expected pending dirty lines under PMEM; recorder captured none")
	}
	if rep.TotalDistinct <= len(rep.Points) {
		t.Fatalf("expected a non-trivial reachable set under PMEM, got %d images over %d points",
			rep.TotalDistinct, len(rep.Points))
	}
}

func TestBEPEpochPrefixSemantics(t *testing.T) {
	// With epoch barriers, every enumerated epoch-prefix-plus-frontier
	// image is consistent; without them everything coalesces into one
	// epoch and the checker must find a reordered corner.
	withBarriers := mcConfig(workload.NewLinkedList(), persistency.BEP, false).Run()
	if withBarriers.TotalViolating != 0 {
		t.Errorf("BEP with epoch barriers: %d violating images (%s)",
			withBarriers.TotalViolating, withBarriers.String())
	}
	noBarriers := mcConfig(workload.NewLinkedList(), persistency.BEP, true).Run()
	if noBarriers.TotalViolating == 0 {
		t.Errorf("BEP without barriers: single-epoch reorder found no violating image (%s)",
			noBarriers.String())
	}
}

// TestDeterministicAcrossParallelWidths requires the whole report to be
// the same at any checker count. Beyond the linked list, it covers each
// kind of recovery checker that runs concurrently with its own instance's
// programs (the Workload.Check contract): a kv mix, a pds structure, a
// litmus test, and the btree, whose barrier-free PMEM points violate and
// so also minimize witnesses on the checker goroutines.
func TestDeterministicAcrossParallelWidths(t *testing.T) {
	base := mcConfig(workload.NewLinkedList(), persistency.PMEM, true)
	serial := base.Run()
	for _, width := range []int{2, 8} {
		cc := base
		cc.Parallel = width
		got := cc.Run()
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("report differs between serial and parallel=%d runs", width)
		}
	}

	for _, tc := range []struct {
		name        string
		scheme      persistency.Scheme
		ops         int
		noBarriers  bool
		first, step engine.Cycle
	}{
		{"kv", persistency.BEP, 12, false, 2_000, 4_000},
		{"pds/hashresize", persistency.PMEM, 8, false, 2_000, 6_000},
		{"litmus/sb", persistency.PMEM, 1, true, 60, 90},
		{"btree", persistency.PMEM, 40, true, 4_000, 6_000},
	} {
		w, err := workload.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		c := mcConfig(w, tc.scheme, tc.noBarriers)
		c.Params.OpsPerThread = tc.ops
		c.FirstCrash, c.Step, c.Points = tc.first, tc.step, 6
		serial := c.Run()
		if serial.TotalDistinct <= c.Points {
			t.Fatalf("%s: %d images over %d points; the campaign checks too little to compare", tc.name, serial.TotalDistinct, c.Points)
		}
		c.Parallel = 3
		if got := c.Run(); !reflect.DeepEqual(serial, got) {
			t.Errorf("%s/%s: report differs between serial and parallel=3 runs:\n%s\n%s", tc.name, tc.scheme, serial, got)
		}
	}
}

// TestGoldenImageCounts pins the distinct-image and violating-image
// counts for the Figure 2/3 linked-list programs per scheme. These are
// properties of the deterministic simulator at these exact parameters:
// a change here means the reachable crash-state space changed — bump the
// numbers only with an explanation of the machine change that moved them.
func TestGoldenImageCounts(t *testing.T) {
	cases := []struct {
		name          string
		scheme        persistency.Scheme
		noBarriers    bool
		wantDistinct  int
		wantViolating int
	}{
		{"pmem-nobarriers", persistency.PMEM, true, goldenPMEMNoBarrierImages, goldenPMEMNoBarrierViolations},
		{"pmem-barriers", persistency.PMEM, false, goldenPMEMBarrierImages, 0},
		{"bep-barriers", persistency.BEP, false, goldenBEPBarrierImages, 0},
		{"bep-nobarriers", persistency.BEP, true, goldenBEPNoBarrierImages, goldenBEPNoBarrierViolations},
		{"bbb", persistency.BBB, true, 3, 0},
		{"eadr", persistency.EADR, true, 3, 0},
	}
	for _, tc := range cases {
		rep := mcConfig(workload.NewLinkedList(), tc.scheme, tc.noBarriers).Run()
		if rep.TotalDistinct != tc.wantDistinct {
			t.Errorf("%s: distinct images = %d, want %d", tc.name, rep.TotalDistinct, tc.wantDistinct)
		}
		if rep.TotalViolating != tc.wantViolating {
			t.Errorf("%s: violating images = %d, want %d", tc.name, rep.TotalViolating, tc.wantViolating)
		}
	}
}

func TestWitnessRoundTripAndReplay(t *testing.T) {
	rep := mcConfig(workload.NewLinkedList(), persistency.PMEM, true).Run()
	wit := rep.FirstWitness()
	if wit == nil {
		t.Fatal("no witness to replay")
	}
	data, err := wit.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseWitness(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wit, parsed) {
		t.Fatal("witness did not round-trip through JSON")
	}
	out, err := Replay(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatalf("replay did not reproduce: got %q, witness says %q", out.Err, wit.Err)
	}
}

func TestWitnessSchemaVersion(t *testing.T) {
	rep := mcConfig(workload.NewLinkedList(), persistency.PMEM, true).Run()
	wit := rep.FirstWitness()
	if wit == nil {
		t.Fatal("no witness")
	}
	if wit.SchemaVersion != WitnessSchemaVersion {
		t.Fatalf("fresh witness carries schema version %d, want %d", wit.SchemaVersion, WitnessSchemaVersion)
	}
	data, err := wit.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if parsed, perr := ParseWitness(data); perr != nil || parsed.SchemaVersion != WitnessSchemaVersion {
		t.Fatalf("schema version did not round-trip: %v, %+v", perr, parsed)
	}

	// A witness from a different schema era must be rejected, not
	// misreplayed — including pre-versioned witnesses, which decode as
	// version 0.
	future := *wit
	future.SchemaVersion = WitnessSchemaVersion + 1
	if data, err = future.MarshalIndent(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseWitness(data); err == nil {
		t.Fatal("ParseWitness accepted a future schema version")
	}
	old := *wit
	old.SchemaVersion = 0
	if data, err = old.MarshalIndent(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseWitness(data); err == nil {
		t.Fatal("ParseWitness accepted a pre-versioned witness")
	}
}

func TestReplayRejectsStaleWitness(t *testing.T) {
	rep := mcConfig(workload.NewLinkedList(), persistency.PMEM, true).Run()
	wit := rep.FirstWitness()
	if wit == nil {
		t.Fatal("no witness")
	}
	stale := *wit
	stale.Survivors = append([]WitnessWrite(nil), wit.Survivors...)
	stale.Survivors[0].Addr += 64 * 1024 * 1024 // an address never pending
	if _, err := Replay(&stale); err == nil {
		t.Fatal("replay accepted a witness whose write is not pending")
	}
}

func TestMinimizedWitnessStillLegalUnderBEP(t *testing.T) {
	rep := mcConfig(workload.NewLinkedList(), persistency.BEP, true).Run()
	wit := rep.FirstWitness()
	if wit == nil {
		t.Skip("no BEP violation at these points")
	}
	out, err := Replay(wit)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatalf("BEP witness did not reproduce: got %q want %q", out.Err, wit.Err)
	}
}
