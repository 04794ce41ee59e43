package crashmc

import (
	"fmt"
	"slices"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// Config describes one model-checking campaign: a sweep of crash points
// at each of which every reachable image is validated. Bounds{MaxImages:
// 1} makes it the crash-injection campaign that validates only the
// deterministic flush-on-fail image.
type Config struct {
	Workload workload.Workload
	Scheme   persistency.Scheme
	System   system.Config
	Params   workload.Params
	// Crash points: FirstCrash, then every Step cycles, Points times.
	FirstCrash engine.Cycle
	Step       engine.Cycle
	Points     int
	// Parallel bounds how many machines walk the crash points at once:
	// worker k of Parallel advances one machine through points k,
	// k+Parallel, … (workload.WalkCrashPoints), snapshotting it live at
	// each. The report is byte-identical at any width. Workloads outside
	// the registry run serially (no ByName re-resolution).
	Parallel int
	// Bounds prune the per-point enumeration.
	Bounds Bounds
	// MaxViolations caps the violations recorded per point (the counts
	// stay exact). Zero means 4.
	MaxViolations int
}

// Violation is one reachable durable image the recovery checker rejects.
type Violation struct {
	// Hash identifies the violating image.
	Hash [32]byte
	// Survivors are the pending-write indices whose survival produced it.
	Survivors []int
	// Err is the checker's complaint.
	Err string
	// Minimized is the smallest legal surviving subset that still fails
	// (computed for the first violation of each crash point); nil when
	// minimization was not attempted.
	Minimized []int
	// MinimizedErr is the checker's complaint on the minimized image.
	MinimizedErr string
}

// PointResult is one crash point's exploration.
type PointResult struct {
	CrashCycle engine.Cycle
	Finished   bool
	Drain      persistency.DrainReport
	// DomainLines counts pending writes already inside the persistence
	// domain (always survive); Pending counts the enumerable ones.
	DomainLines int
	Pending     int
	// Sets / SetsSkipped / DistinctImages summarize the enumeration.
	Sets           int
	SetsSkipped    uint64
	DistinctImages int
	// ViolatingImages counts distinct images the checker rejected.
	ViolatingImages int
	Violations      []Violation
	// Witness replays the first minimized violation via bbbmc -repro.
	Witness *Witness
}

// Report aggregates a campaign.
type Report struct {
	Workload string
	Scheme   persistency.Scheme
	Barriers bool
	Bounds   Bounds
	Points   []PointResult

	// Aggregates over the points.
	TotalSets       int
	TotalDistinct   int
	TotalViolating  int
	MaxPending      int
	DrainedLinesMax int
	Truncated       bool
}

// Run executes the campaign. Each worker walks one machine through its
// share of the crash points (workload.WalkCrashPoints), takes a live
// Snapshot at each, and validates the point's images as the enumerator
// streams them; every point's result equals an independent run from a
// fresh machine, so the report is byte-identical at any width.
func (c Config) Run() Report {
	if c.Points <= 0 {
		panic("crashmc: Points must be positive")
	}
	b := c.Bounds.withDefaults()
	maxViol := c.MaxViolations
	if maxViol <= 0 {
		maxViol = 4
	}
	rep := Report{
		Workload: c.Workload.Name(),
		Scheme:   c.Scheme,
		Barriers: !c.Params.NoBarriers,
		Bounds:   b,
	}
	rep.Points = workload.WalkCrashPoints(c.Workload, c.Scheme, c.System, c.Params, workload.EvenCycles(c.FirstCrash, c.Step, c.Points), c.Parallel,
		func(w workload.Workload, sys *system.System, at engine.Cycle, finished bool) PointResult {
			return checkPoint(w, c, b, maxViol, Snapshot(sys, at, finished))
		})
	for _, p := range rep.Points {
		rep.TotalSets += p.Sets
		rep.TotalDistinct += p.DistinctImages
		rep.TotalViolating += p.ViolatingImages
		if p.Pending > rep.MaxPending {
			rep.MaxPending = p.Pending
		}
		if n := p.Drain.Lines(); n > rep.DrainedLinesMax {
			rep.DrainedLinesMax = n
		}
		if p.SetsSkipped > 0 {
			rep.Truncated = true
		}
	}
	return rep
}

// checkPoint enumerates and validates one crash point's snapshot through a
// pooled scratch, held until the point is done.
func checkPoint(w workload.Workload, c Config, b Bounds, maxViol int, rec *Record) PointResult {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.checkPoint(w, c, b, maxViol, rec)
}

// checkPoint is the package checkPoint in s's buffers. Each new distinct
// image is written into rec.Base in place through the line pointers
// bindLines resolved, checked, and restored from the base lines the line
// table read before the first overlay. The writes bypass Memory's
// accounting, so checking leaves Base's Writes and wear as the snapshot or
// crash left them.
func (s *scratch) checkPoint(w workload.Workload, c Config, b Bounds, maxViol int, rec *Record) PointResult {
	res := PointResult{
		CrashCycle:  rec.CrashCycle,
		Finished:    rec.Finished,
		Drain:       rec.Drain,
		DomainLines: rec.DomainLines,
		Pending:     len(rec.Pending),
	}
	s.load(rec)
	s.bindLines()
	check := func(r *resolver) error {
		s.apply(r)
		err := w.Check(rec.Base)
		s.restore(r)
		return err
	}
	checkSet := func(survivors []int) string {
		s.mr.resolve(survivors)
		if err := check(&s.mr); err != nil {
			return err.Error()
		}
		return ""
	}

	res.Sets, res.SetsSkipped = s.stream(b, func(set []int) {
		res.DistinctImages++
		err := check(&s.r)
		if err == nil {
			return
		}
		res.ViolatingImages++
		if len(res.Violations) >= maxViol {
			return
		}
		v := Violation{Hash: s.h.sum(s.r.image(set).Overlay), Survivors: slices.Clone(set), Err: err.Error()}
		if len(res.Violations) == 0 {
			v.Minimized, v.MinimizedErr = minimize(rec, v.Survivors, checkSet)
			res.Witness = newWitness(c, rec.CrashCycle, rec, v.Minimized, v.MinimizedErr)
		}
		res.Violations = append(res.Violations, v)
	})
	return res
}

// bindLines points s.lines at each line of the loaded table in place in the
// record's Base, materializing the pages it lacks.
func (s *scratch) bindLines() {
	base := s.table.rec.Base
	lines := s.lines[:0] // a local, as in resolver.resolve
	for _, a := range s.table.addrs {
		lines = append(lines, base.Line(a))
	}
	s.lines = lines
}

// apply writes the image r resolved last into the record's Base: each
// line's newest surviving write.
func (s *scratch) apply(r *resolver) {
	t := &s.table
	for _, p := range r.hits {
		*s.lines[t.line[p]] = t.rec.Pending[p].Data
	}
}

// restore writes the base bytes back under the image apply wrote.
func (s *scratch) restore(r *resolver) {
	t := &s.table
	for _, p := range r.hits {
		l := t.line[p]
		*s.lines[l] = t.base[l]
	}
}

func applyOverlay(m *memory.Memory, overlay []LineWrite) {
	for i := range overlay {
		m.WriteLine(overlay[i].Addr, &overlay[i].Data)
	}
}

func revertOverlay(m, base *memory.Memory, overlay []LineWrite) {
	var line [memory.LineSize]byte
	for i := range overlay {
		base.PeekLine(overlay[i].Addr, &line)
		m.WriteLine(overlay[i].Addr, &line)
	}
}

// minimize greedily shrinks a violating survival set: survivors drop
// youngest-first while the set stays legal (epoch-downward closed) and
// the checker still rejects the image, iterating to a fixpoint. The
// result is a minimal witness in the sense that no single remaining
// survivor can be dropped.
func minimize(rec *Record, survivors []int, check func([]int) string) ([]int, string) {
	cur := append([]int(nil), survivors...)
	errStr := check(cur)
	if errStr == "" {
		// The full set no longer fails through this path (cannot happen:
		// the caller only minimizes failing sets); keep it unminimized.
		return cur, errStr
	}
	for changed := true; changed; {
		changed = false
		for i := len(cur) - 1; i >= 0; i-- {
			cand := make([]int, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if !legalSet(rec, cand) {
				continue
			}
			if e := check(cand); e != "" {
				cur, errStr = cand, e
				changed = true
			}
		}
	}
	return cur, errStr
}

// legalSet reports whether the survival set respects every class rule:
// a surviving epoch-class write requires every same-core pending write of
// an earlier epoch to survive too.
func legalSet(rec *Record, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, i := range set {
		in[i] = true
	}
	for _, i := range set {
		w := rec.Pending[i]
		if w.Class != ClassEpoch {
			continue
		}
		for j, o := range rec.Pending {
			if o.Class == ClassEpoch && o.Core == w.Core && o.Epoch < w.Epoch && !in[j] {
				return false
			}
		}
	}
	return true
}

// String summarizes the report in the campaign-table format of the CLIs.
func (r Report) String() string {
	mode := "with barriers"
	if !r.Barriers {
		mode = "NO barriers"
	}
	trunc := ""
	if r.Truncated {
		trunc = "  (bounded)"
	}
	return fmt.Sprintf("%-10s %-9s %-13s points: %3d  pending(max): %3d  sets: %6d  images: %6d  violating: %5d%s",
		r.Workload, r.Scheme, mode, len(r.Points), r.MaxPending, r.TotalSets, r.TotalDistinct, r.TotalViolating, trunc)
}

// FirstWitness returns the first crash point's minimized witness, if any
// point violated.
func (r Report) FirstWitness() *Witness {
	for _, p := range r.Points {
		if p.Witness != nil {
			return p.Witness
		}
	}
	return nil
}

// SingleImage reports whether every crash point enumerated exactly one
// reachable image — the paper's claim for the battery-complete schemes.
func (r Report) SingleImage() bool {
	for _, p := range r.Points {
		if p.DistinctImages != 1 {
			return false
		}
	}
	return true
}
