// Package conform is pressurelint's soundness gate: the static battery-
// bound certificates are not asserted correct, they are *checked* against
// the dynamic machinery, mirroring the litmus operational⊆axiomatic gate.
// For every Table IV workload × scheme pair it:
//
//   - replays the workload through a metrics-traced run and asserts the
//     observed peak persist-buffer occupancy (bbPB for BBB/BBBProc, VPB
//     for BEP) never exceeds the certified per-core bound, and the WPQ
//     never exceeds its configured depth;
//   - walks one machine through the sampled crash instants
//     (workload.WalkCrashPoints) and runs the live invariant auditor
//     (invariant.Check plus CheckOccupancyBound) at each stop;
//   - snapshots crashmc's pending persistence-domain sets at those
//     instants and asserts every enumerated pending line fits the bound
//     (per-core for BEP epochs, thread-scaled strict for PMEM's at-risk
//     cache lines, empty for the battery-backed schemes).
//
// A dynamic exceedance is a hard failure carrying a minimized witness:
// the smallest set of pending lines (bound+1 of them) proving the static
// bound wrong. `make pressure-short` runs this gate in make check.
package conform

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"bbb/internal/crashmc"
	"bbb/internal/engine"
	"bbb/internal/invariant"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/system"
	"bbb/internal/vet"
	"bbb/internal/vet/pressurelint"
	"bbb/internal/workload"
)

// Options sizes the gate. The defaults keep `make pressure-short` under a
// couple of minutes while still exercising every pair.
type Options struct {
	// RepoRoot is the module root pressurelint loads ./internal/workload
	// from.
	RepoRoot string
	// Threads and Ops shape the workload runs.
	Threads int
	Ops     int
	Seed    int64
	// CrashPoints is how many crash instants are sampled per pair,
	// spread evenly across the run.
	CrashPoints int
}

// DefaultOptions is the pressure-short configuration.
func DefaultOptions() Options {
	return Options{RepoRoot: "../../../..", Threads: 2, Ops: 24, Seed: 1, CrashPoints: 3}
}

// Pair is one workload × scheme row of the conformance report.
type Pair struct {
	Workload string                   `json:"workload"`
	Unit     string                   `json:"unit"` // certificate unit (workload type)
	Scheme   string                   `json:"scheme"`
	Bound    pressurelint.SchemeBound `json:"bound"`
	// Observed dynamic maxima, all required ≤ the corresponding bound.
	ObservedPerCorePeak uint64 `json:"observedPerCorePeak"` // bbPB/VPB gauge max
	ObservedWPQPeak     uint64 `json:"observedWpqPeak"`
	ObservedDomainMax   int    `json:"observedDomainMax"`  // crashmc DomainLines max
	ObservedPendingMax  int    `json:"observedPendingMax"` // enumerable pending lines max
}

// Report is the full gate output.
type Report struct {
	Certificates []pressurelint.Certificate `json:"certificates"`
	Pairs        []Pair                     `json:"pairs"`
}

// Certificates loads the workload package and computes its certificates,
// with witness paths rewritten relative to the repo root so goldens are
// machine-independent.
func Certificates(repoRoot string) ([]pressurelint.Certificate, error) {
	pkgs, fset, err := vet.Load(repoRoot, "./internal/workload")
	if err != nil {
		return nil, fmt.Errorf("loading workload package: %w", err)
	}
	certs := pressurelint.Certificates(pkgs, fset)
	root := repoRoot
	if abs, err := filepath.Abs(repoRoot); err == nil {
		root = abs
	}
	for i := range certs {
		certs[i].Witness = relToRoot(certs[i].Witness, root)
		certs[i].Pos.Filename = relToRoot(certs[i].Pos.Filename, root)
		for j, f := range certs[i].Findings {
			certs[i].Findings[j] = relAll(f, root)
		}
	}
	return certs, nil
}

func relToRoot(p, root string) string {
	return strings.TrimPrefix(strings.TrimPrefix(p, root), "/")
}

func relAll(s, root string) string {
	return strings.ReplaceAll(s, root+"/", "")
}

// unitName maps a workload instance to its certificate unit: the concrete
// type name (all Array variants share the Array programs, hence the Array
// bound).
func unitName(w workload.Workload) string {
	t := reflect.TypeOf(w)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// Run executes the gate and returns the report; any exceedance returns an
// error naming the pair and carrying the minimized witness.
func Run(opts Options) (*Report, error) {
	certs, err := Certificates(opts.RepoRoot)
	if err != nil {
		return nil, err
	}
	byUnit := map[string]pressurelint.Certificate{}
	for _, c := range certs {
		byUnit[c.Unit] = c
	}

	p := workload.Params{Threads: opts.Threads, OpsPerThread: opts.Ops, Seed: opts.Seed}
	rep := &Report{Certificates: certs}

	for _, w := range workload.Registry() {
		unit := unitName(w)
		cert, ok := byUnit[unit]
		if !ok {
			return nil, fmt.Errorf("no certificate for Table IV workload %s (unit %s)", w.Name(), unit)
		}
		for _, s := range persistency.Schemes() {
			pair, err := checkPair(w.Name(), cert, s, p, opts)
			if err != nil {
				return nil, err
			}
			rep.Pairs = append(rep.Pairs, *pair)
		}
	}
	return rep, nil
}

func checkPair(name string, cert pressurelint.Certificate, s persistency.Scheme, p workload.Params, opts Options) (*Pair, error) {
	cfg := system.DefaultConfig(s)
	caps := pressurelint.Caps{
		BBPBEntries: cfg.BBPB.Entries,
		VPBEntries:  cfg.BBPB.Entries,
		WPQEntries:  cfg.NVMM.WPQEntries,
	}
	sb := cert.ForScheme(s.String(), p.Threads, caps, memory.LineSize)
	pair := &Pair{Workload: name, Unit: cert.Unit, Scheme: s.String(), Bound: sb}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pressure gate: %s × %s: %s", name, s, fmt.Sprintf(format, args...))
	}

	// Dynamic occupancy via the metrics-traced full run.
	fresh, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	tcfg := cfg
	tcfg.TraceCapacity = 1
	res := workload.Run(fresh, s, tcfg, p)
	if res.Metrics == nil {
		return nil, fail("traced run produced no metrics")
	}
	switch s {
	case persistency.BBB, persistency.BBBProc:
		pair.ObservedPerCorePeak = gaugeMax(res.Metrics, "bbpb.occupancy")
	case persistency.BEP:
		pair.ObservedPerCorePeak = gaugeMax(res.Metrics, "vpb.occupancy")
	}
	pair.ObservedWPQPeak = gaugeMax(res.Metrics, "wpq.depth")
	if hasPerCoreBuffer(s) && pair.ObservedPerCorePeak > uint64(sb.PerCoreLines) {
		return nil, fail("observed per-core buffer peak %d exceeds certified bound %d (cert strict=%s relaxed=%s witness=%s)",
			pair.ObservedPerCorePeak, sb.PerCoreLines, cert.StrictLines, cert.RelaxedLines, cert.Witness)
	}
	if pair.ObservedWPQPeak > uint64(caps.WPQEntries) {
		return nil, fail("observed WPQ depth %d exceeds capacity %d", pair.ObservedWPQPeak, caps.WPQEntries)
	}

	// Crash instants: walk one machine through them, audit the live
	// invariants and the certified occupancy bound at each stop, then
	// snapshot the pending sets.
	cycles := make([]engine.Cycle, opts.CrashPoints)
	for i := range cycles {
		cycles[i] = res.Cycles * engine.Cycle(i+1) / engine.Cycle(opts.CrashPoints+1)
	}
	fresh, err = workload.ByName(name)
	if err != nil {
		return nil, err
	}
	errs := workload.WalkCrashPoints(fresh, s, cfg, p, cycles, 1, func(_ workload.Workload, sys *system.System, cc engine.Cycle, finished bool) error {
		if err := invariant.Check(invariant.View{Hier: sys.Hier, Bufs: sys.Model.Buffers}); err != nil {
			return fail("invariant auditor at crash cycle %d: %v", cc, err)
		}
		if hasPerCoreBuffer(s) && len(sys.Model.Buffers) > 0 {
			if err := invariant.CheckOccupancyBound(sys.Model.Buffers, sb.PerCoreLines); err != nil {
				return fail("at crash cycle %d: %v (cert strict=%s relaxed=%s witness=%s)",
					cc, err, cert.StrictLines, cert.RelaxedLines, cert.Witness)
			}
		}
		rec := crashmc.Snapshot(sys, cc, finished)
		if rec.DomainLines > pair.ObservedDomainMax {
			pair.ObservedDomainMax = rec.DomainLines
		}
		if rec.DomainLines > sb.MaxDirtyLines {
			return fail("crash cycle %d: %d persistence-domain lines exceed certified MaxDirtyLines %d",
				cc, rec.DomainLines, sb.MaxDirtyLines)
		}
		return checkPending(rec, s, sb, p.Threads, pair, cc, fail)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pair, nil
}

// gaugeMax is Gauge(name).Max() tolerating runs that never sampled name
// (a workload that never queues a write records no wpq.depth points).
func gaugeMax(m *stats.Metrics, name string) uint64 {
	g := m.Gauge(name)
	if g == nil {
		return 0
	}
	return g.Max()
}

func hasPerCoreBuffer(s persistency.Scheme) bool {
	return s == persistency.BBB || s == persistency.BBBProc || s == persistency.BEP
}

// checkPending validates crashmc's enumerable pending set against the
// scheme bound and records the observed maximum.
func checkPending(rec *crashmc.Record, s persistency.Scheme, sb pressurelint.SchemeBound, threads int, pair *Pair, cc engine.Cycle, fail func(string, ...any) error) error {
	lines := map[memory.Addr]bool{}
	perCore := map[int]map[memory.Addr]bool{}
	for _, pw := range rec.Pending {
		la := memory.LineAddr(pw.Addr)
		lines[la] = true
		if pw.Core >= 0 {
			if perCore[pw.Core] == nil {
				perCore[pw.Core] = map[memory.Addr]bool{}
			}
			perCore[pw.Core][la] = true
		}
	}
	if len(lines) > pair.ObservedPendingMax {
		pair.ObservedPendingMax = len(lines)
	}

	switch s {
	case persistency.PMEM:
		if !sb.AtRiskLines.Unbounded && len(lines) > sb.AtRiskLines.Lines {
			return fail("crash cycle %d: %d at-risk cache lines exceed certified bound %d; minimized witness: %s",
				cc, len(lines), sb.AtRiskLines.Lines, witnessLines(lines, sb.AtRiskLines.Lines+1))
		}
	case persistency.BEP:
		for core, set := range perCore {
			if len(set) > sb.PerCoreLines {
				return fail("crash cycle %d: core %d holds %d buffered lines, certified per-core bound %d; minimized witness: %s",
					cc, core, len(set), sb.PerCoreLines, witnessLines(set, sb.PerCoreLines+1))
			}
		}
		if !sb.AtRiskLines.Unbounded && len(lines) > sb.AtRiskLines.Lines {
			return fail("crash cycle %d: %d buffered lines exceed certified at-risk bound %d; minimized witness: %s",
				cc, len(lines), sb.AtRiskLines.Lines, witnessLines(lines, sb.AtRiskLines.Lines+1))
		}
	default:
		// Battery-backed (and whole-cache) schemes: flush-on-fail drains
		// everything, so nothing is enumerable.
		if len(lines) > 0 {
			return fail("crash cycle %d: %d pending lines under a scheme whose persistence domain covers all committed stores; minimized witness: %s",
				cc, len(lines), witnessLines(lines, 1))
		}
	}
	return nil
}

// witnessLines renders the minimized exceedance witness: the smallest
// prefix (by address) of the pending set that already violates the bound.
func witnessLines(set map[memory.Addr]bool, n int) string {
	addrs := make([]memory.Addr, 0, len(set))
	for a := range set {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	if n > len(addrs) {
		n = len(addrs)
	}
	parts := make([]string, n)
	for i := 0; i < n; i++ {
		parts[i] = fmt.Sprintf("0x%x", uint64(addrs[i]))
	}
	return "[" + strings.Join(parts, " ") + "]"
}
