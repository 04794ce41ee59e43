package stats

import "fmt"

// Windowed is a histogram sliced into fixed-width, cycle-aligned windows:
// every sample lands both in a whole-run total and in the histogram of the
// window containing its cycle, so a run reports not just end-of-run
// percentiles but a latency-over-time series (per-window p50/p99) and SLO
// burn (how many samples in each window exceeded a bound). Service
// workloads keep one Windowed per client (single goroutine, no locking)
// and fold them into the run's Metrics registry afterwards; windows are
// aligned to absolute cycle multiples of the width, so per-client windows
// merge exactly.
//
// Memory stays bounded the same way GaugeSeries' does: past windowedCap
// retained windows, adjacent window pairs coalesce and the width doubles —
// deterministically, so two runs of the same seed (at any merge order of
// identically-shaped clients) produce byte-identical window sets.
type Windowed struct {
	width uint64 // current window width (base x 2^k after coalescing)
	base  uint64 // construction-time width
	slo   uint64 // samples above this bound count as SLO violations (0 = off)
	wins  []window
	total Histogram
}

// window is one aligned slice of the timeline.
type window struct {
	start uint64 // first cycle covered (a multiple of width)
	over  uint64 // samples above the SLO bound
	hist  Histogram
}

// windowedCap bounds retained windows; on overflow adjacent windows
// coalesce and the width doubles, keeping full timeline coverage at
// reduced resolution.
const windowedCap = 4096

// NewWindowed returns a windowed histogram with the given window width in
// cycles and SLO bound (samples strictly above slo count toward the
// window's Over tally; slo 0 disables the accounting).
func NewWindowed(width, slo uint64) *Windowed {
	if width == 0 {
		panic("stats: Windowed width must be positive")
	}
	return &Windowed{width: width, base: width, slo: slo}
}

// Width returns the current window width (it grows by doubling when the
// retained-window cap is hit).
func (w *Windowed) Width() uint64 { return w.width }

// BaseWidth returns the construction-time window width.
func (w *Windowed) BaseWidth() uint64 { return w.base }

// SLO returns the configured SLO bound (0 = disabled).
func (w *Windowed) SLO() uint64 { return w.slo }

// Observe adds one sample stamped with the cycle it was measured at.
// Cycles must arrive in non-decreasing order (event-driven measurement
// guarantees this); a stamp older than the open window folds into it.
func (w *Windowed) Observe(cycle, v uint64) {
	start := cycle - cycle%w.width
	n := len(w.wins)
	if n == 0 || start > w.wins[n-1].start {
		w.wins = append(w.wins, window{start: start})
		if len(w.wins) > windowedCap {
			w.width *= 2
			w.wins = coalesce(w.wins, w.width)
		}
		n = len(w.wins)
	}
	win := &w.wins[n-1]
	win.hist.Observe(v)
	if w.slo > 0 && v > w.slo {
		win.over++
	}
	w.total.Observe(v)
}

// coalesce re-aligns every window of wins, ascending by start, to width
// to, merging the windows that now share a start, in place. to must be a
// power-of-two multiple of the windows' width, so alignment is preserved.
func coalesce(wins []window, to uint64) []window {
	kept := wins[:0]
	for i := range wins {
		start := wins[i].start - wins[i].start%to
		if n := len(kept); n > 0 && kept[n-1].start == start {
			kept[n-1].hist.Merge(&wins[i].hist)
			kept[n-1].over += wins[i].over
		} else {
			kept = append(kept, wins[i])
			kept[len(kept)-1].start = start
		}
	}
	return kept
}

// Total returns the whole-run histogram across every window.
func (w *Windowed) Total() *Histogram { return &w.total }

// Windows returns the number of retained windows.
func (w *Windowed) Windows() int { return len(w.wins) }

// WindowSnapshot is one window's digest: the per-window quantiles that
// feed latency-over-time tables and GaugeSeries counter tracks, plus the
// SLO violation count behind burn-rate reporting.
type WindowSnapshot struct {
	// Start is the first cycle the window covers; it spans
	// [Start, Start+Width).
	Start uint64
	// Count and Over are the window's sample count and how many of those
	// exceeded the SLO bound.
	Count uint64
	Over  uint64
	// P50, P99 and Max digest the window's latency distribution.
	P50 float64
	P99 float64
	Max uint64
}

// Snapshots digests every retained window, ascending by start cycle.
func (w *Windowed) Snapshots() []WindowSnapshot {
	snaps := make([]WindowSnapshot, len(w.wins))
	for i := range w.wins {
		win := &w.wins[i]
		snaps[i] = WindowSnapshot{
			Start: win.start,
			Count: win.hist.Count(),
			Over:  win.over,
			P50:   win.hist.P50(),
			P99:   win.hist.P99(),
			Max:   win.hist.Max(),
		}
	}
	return snaps
}

// Merge folds every window of other into w. Both sides must share the
// same base width and SLO bound (they come from the same metric measured
// by different clients); the merged width is the wider of the two, and
// merging identically-shaped inputs in any order yields identical state.
func (w *Windowed) Merge(other *Windowed) {
	if other == nil || (other.total.Count() == 0 && len(other.wins) == 0) {
		return
	}
	if w.base != other.base || w.slo != other.slo {
		panic(fmt.Sprintf("stats: merging windowed histograms with different shapes (width %d/slo %d vs %d/%d)",
			w.base, w.slo, other.base, other.slo))
	}
	// Work on a copy of other's windows so the donor is untouched.
	ows := append([]window(nil), other.wins...)
	width := w.width
	if other.width > width {
		width = other.width
	}
	w.wins = coalesce(w.wins, width)
	w.width = width
	ows = coalesce(ows, width)
	// Merge the two sorted-by-start window lists.
	merged := make([]window, 0, len(w.wins)+len(ows))
	i, j := 0, 0
	for i < len(w.wins) || j < len(ows) {
		switch {
		case j >= len(ows) || (i < len(w.wins) && w.wins[i].start < ows[j].start):
			merged = append(merged, w.wins[i])
			i++
		case i >= len(w.wins) || ows[j].start < w.wins[i].start:
			merged = append(merged, ows[j])
			j++
		default:
			win := w.wins[i]
			win.hist.Merge(&ows[j].hist)
			win.over += ows[j].over
			merged = append(merged, win)
			i, j = i+1, j+1
		}
	}
	w.wins = merged
	for len(w.wins) > windowedCap {
		w.width *= 2
		w.wins = coalesce(w.wins, w.width)
	}
	w.total.Merge(&other.total)
}

// Summary renders the one-line digest used by CLIs and golden tests.
func (w *Windowed) Summary() string {
	return fmt.Sprintf("windows=%d width=%d over_slo=%d total: %s",
		len(w.wins), w.width, w.OverSLO(), w.total.Summary())
}

// OverSLO returns the total SLO violations across every window.
func (w *Windowed) OverSLO() uint64 {
	var over uint64
	for i := range w.wins {
		over += w.wins[i].over
	}
	return over
}
