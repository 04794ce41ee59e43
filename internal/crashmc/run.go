package crashmc

import (
	"fmt"
	"slices"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/sweep"
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
	// Parallel bounds how many crash points are checked at once. One
	// machine walks every point (workload.WalkCrashPoints) and snapshots
	// it live at each; Parallel-1 checker goroutines and the walker itself
	// enumerate and validate the snapshots (walk). 0 or 1 checks each
	// point on the walker's goroutine, in order. The report is
	// byte-identical at any width.
	Parallel int
	// Bounds prune the per-point enumeration.
	Bounds Bounds
}

// maxViolations caps the violations recorded per point; the counts stay
// exact.
const maxViolations = 4

// Violation is one reachable durable image the check rejects (under Run,
// the workload's recovery checker).
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

// Run executes the campaign. One machine walks the crash points
// (workload.WalkCrashPoints) and takes a live Snapshot at each into a
// pooled image; the point is then checked — its images enumerated and each
// validated as the enumerator streams it — by a checker goroutine, or by
// the walker when every checker is busy. Every point's result equals an
// independent run from a fresh machine and lands in its own slot, so the
// report is byte-identical at any width.
func (c Config) Run() Report {
	if c.Points <= 0 {
		panic("crashmc: Points must be positive")
	}
	rep := Report{
		Workload: c.Workload.Name(),
		Scheme:   c.Scheme,
		Barriers: !c.Params.NoBarriers,
		Bounds:   c.Bounds.withDefaults(),
	}
	rep.Points = c.walk()
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

// walk advances one machine through the campaign's crash points and
// snapshots each into a crash image from a free list, then hands the point
// to one of c.Parallel-1 checker goroutines over a one-slot channel, or
// checks it on the walker when the slot is taken (caller-runs). So at most
// c.Parallel checks run at once and c.Parallel+1 images suffice: one per
// checker, one queued, one the walker fills or checks. A point's image is
// freed only after its check returns, since witness minimization reads
// rec.Base until then. At width 1 every point is checked on the caller's
// goroutine, in one image. sweep.Run starts and joins the goroutines and
// re-panics a panic on the caller.
func (c Config) walk() []PointResult {
	type job struct {
		i   int
		rec *Record
	}
	out := make([]PointResult, c.Points)
	width := max(c.Parallel, 1)
	var jobs chan job // nil at width 1: a send is never ready
	images := 1
	if width > 1 {
		jobs = make(chan job, 1)
		images += cap(jobs) + width - 1
	}
	free := make(chan *memory.Memory, images) // FIFO; a nil image is allocated on first use
	for range images {
		free <- nil
	}
	check := func(j job) {
		out[j.i] = c.CheckRecord(j.rec, c.Workload.Check)
		free <- j.rec.Base
	}
	sweep.Run(width, width, func(k int) {
		if k > 0 { // a checker
			for j := range jobs {
				check(j)
			}
			return
		}
		if jobs != nil {
			defer close(jobs)
		}
		workload.WalkCrashPoints(c.Workload, c.Scheme, c.System, c.Params, workload.EvenCycles(c.FirstCrash, c.Step, c.Points),
			func(i int, sys *system.System, at engine.Cycle, finished bool) {
				j := job{i, Snapshot(sys, at, finished, <-free)}
				select {
				case jobs <- j:
				default:
					check(j)
				}
			})
	})
	return out
}

// checkPoint is CheckRecord in s's buffers. Each image is judged through
// the point's verdict memo, straight from its survival set mask: an image
// that agrees with an earlier checked one on every pending line that check
// read takes its verdict. Any other is resolved and written into rec.Base
// in place through the line pointers bindLines resolved, judged by check
// while Base reports its reads of pending lines (memory.Memory.Watch), and
// restored from the base lines the line table read before the first
// overlay. The writes bypass Memory's accounting, so
// checking leaves Base's Writes and wear as the snapshot or crash left
// them. A point whose first check reads every pending line (one without
// pending lines included) judges its other images without the memo. A
// check that panics still leaves rec.Base restored.
func (s *scratch) checkPoint(c Config, rec *Record, check func(*memory.Memory) error) PointResult {
	res := PointResult{
		CrashCycle:  rec.CrashCycle,
		Finished:    rec.Finished,
		Drain:       rec.Drain,
		DomainLines: rec.DomainLines,
		Pending:     len(rec.Pending),
	}
	s.load(rec)
	s.bindLines()
	s.memo.reset(&s.table)
	rec.Base.Watch(s.table.addrs, s.memo.onRead)
	defer rec.Base.Watch(nil, nil)
	memo := true
	// applied is the hits written in rec.Base while check runs; the
	// deferred restore puts the base back under a check that panicked.
	var applied []int32
	defer func() { s.restore(applied) }()
	judge := func(r *resolver) error {
		if memo {
			if err, ok := s.memo.lookup(r.set); ok {
				return err
			}
		}
		applied = r.resolve()
		s.apply(applied)
		err := check(rec.Base)
		s.restore(applied)
		applied = nil
		if memo && !s.memo.learn(err) {
			memo = false // judge the point's other images without it
			rec.Base.Watch(nil, nil)
		}
		return err
	}
	checkSet := func(survivors []int) string {
		s.mr.load(survivors)
		if err := judge(&s.mr); err != nil {
			return err.Error()
		}
		return ""
	}

	res.Sets, res.SetsSkipped = s.stream(c.Bounds, func() {
		res.DistinctImages++
		err := judge(&s.r)
		if err == nil {
			return
		}
		res.ViolatingImages++
		if len(res.Violations) >= maxViolations {
			return
		}
		img := s.r.image()
		v := Violation{Hash: s.h.sum(img.Overlay), Survivors: slices.Clone(img.Survivors), Err: err.Error()}
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

// apply writes an image into the record's Base: its hits, each line's
// newest surviving write whose bytes differ from the base.
func (s *scratch) apply(hits []int32) {
	t := &s.table
	for _, p := range hits {
		*s.lines[t.line[p]] = t.rec.Pending[p].Data
	}
}

// restore writes the base bytes back under the hits apply wrote.
func (s *scratch) restore(hits []int32) {
	t := &s.table
	for _, p := range hits {
		l := t.line[p]
		*s.lines[l] = t.base[l]
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
