package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// This file holds the observability-layer metric types: log-bucketed
// latency histograms, cycle-stamped gauge timelines, and the Metrics
// registry that names them — the structured telemetry the flat Counters
// cannot express (latency *distributions* per scheme, occupancy *over
// time* per component). Everything is cycle-stamped and append-ordered, so
// two runs of the same seed produce byte-identical metric dumps; no wall
// clock, no map-order iteration (detlint enforces both).

// Histogram accumulates uint64 samples into logarithmic (power-of-two)
// buckets: bucket 0 holds zeros, bucket i holds samples in
// [2^(i-1), 2^i - 1]. It keeps exact count/sum/min/max and answers
// quantile queries by linear interpolation inside the owning bucket —
// the same shape gem5 and production telemetry stacks use, because it is
// fixed-size, allocation-free to observe, and merges losslessly.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [65]uint64 // indexed by bits.Len64(sample)
}

// Observe adds one sample. Allocation-free.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// bucketBounds returns the inclusive sample range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = 1 << uint(i-1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, 1<<uint(i) - 1
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// containing the rank and interpolating linearly within its bounds,
// clamped to the observed min/max so small histograms stay exact-ish.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.count-1)
	var cum uint64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, hi := bucketBounds(i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if hi <= lo {
				return float64(lo)
			}
			pos := (rank - float64(cum)) / float64(c)
			return float64(lo) + pos*float64(hi-lo)
		}
		cum += c
	}
	return float64(h.max)
}

// P50, P95 and P99 are the quantiles every latency report leads with.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge adds every sample of other into h (bucket-exact).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// Summary renders the one-line digest used by CLIs and golden tests.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f max=%d",
		h.count, h.Mean(), h.P50(), h.P95(), h.P99(), h.max)
}

// GaugePoint is one cycle-stamped gauge sample. Core is -1 for gauges
// that are not per-core.
type GaugePoint struct {
	Cycle uint64
	Core  int16
	Value uint64
}

// gaugeCap bounds a series' retained points; on overflow the series
// decimates deterministically (every second retained point is dropped and
// the sampling stride doubles), so memory stays bounded while the
// timeline keeps full cycle coverage at reduced resolution.
const gaugeCap = 8192

// GaugeSeries is an append-only, cycle-ordered timeline of gauge samples
// (component occupancies, queue depths).
type GaugeSeries struct {
	points []GaugePoint
	stride uint64 // record every stride-th offered sample
	offers uint64
	max    uint64
	last   GaugePoint
}

// Record offers one sample; samples must arrive in non-decreasing cycle
// order (event-driven components guarantee this).
func (g *GaugeSeries) Record(cycle uint64, core int, v uint64) {
	if v > g.max {
		g.max = v
	}
	g.last = GaugePoint{Cycle: cycle, Core: int16(core), Value: v}
	if g.stride == 0 {
		g.stride = 1
	}
	g.offers++
	if (g.offers-1)%g.stride != 0 {
		return
	}
	if len(g.points) >= gaugeCap {
		kept := g.points[:0]
		for i := 0; i < len(g.points); i += 2 {
			kept = append(kept, g.points[i])
		}
		g.points = kept
		g.stride *= 2
		if (g.offers-1)%g.stride != 0 {
			return
		}
	}
	g.points = append(g.points, g.last)
}

// Points returns the retained timeline, oldest first.
func (g *GaugeSeries) Points() []GaugePoint { return append([]GaugePoint(nil), g.points...) }

// Count returns how many samples were offered (including decimated ones).
func (g *GaugeSeries) Count() uint64 { return g.offers }

// Max returns the largest value ever offered.
func (g *GaugeSeries) Max() uint64 { return g.max }

// Last returns the most recent sample (zero value with no samples).
func (g *GaugeSeries) Last() GaugePoint { return g.last }

// Summary renders the one-line digest used by CLIs.
func (g *GaugeSeries) Summary() string {
	return fmt.Sprintf("n=%d max=%d last=%d", g.offers, g.max, g.last.Value)
}

// Metrics is the named registry of histograms, gauge series and windowed
// histograms, the structured sibling of Counters. Names live in the same
// namespace as counters and must be registered in Glossary; statlint
// cross-checks the LazyHist/LazyGauge/MergeHist/MergeWindowed sites
// against it exactly as it does Counters' writes. A nil *Metrics is a
// valid, disabled registry: its handles record nothing and allocate
// nothing, so components hold one unconditionally (the same pattern as the
// nil trace recorder).
type Metrics struct {
	hists  registry[Histogram]
	gauges registry[GaugeSeries]
	wins   registry[Windowed]
}

// NewMetrics returns an empty, enabled registry.
func NewMetrics() *Metrics { return &Metrics{} }

// LazyHist is a cached handle to one histogram of a Metrics registry, the
// histogram form of Lazy: the histogram registers at the first Observe.
type LazyHist struct{ lazy[Histogram] }

// LazyHist returns a handle for histogram name of m; on a nil m the handle
// is a no-op.
func (m *Metrics) LazyHist(name string) LazyHist {
	if m == nil {
		return LazyHist{}
	}
	return LazyHist{lazy[Histogram]{r: &m.hists, name: name}}
}

// Observe adds one sample to the histogram. It stays small enough to
// inline, with the bind-and-record path out of line, so a disabled handle
// costs one test (make inline-check pins this).
func (h *LazyHist) Observe(v uint64) {
	if h.r != nil {
		h.observe(v)
	}
}

//go:noinline
func (h *LazyHist) observe(v uint64) { h.bind().Observe(v) }

// LazyGauge is a cached handle to one gauge series of a Metrics registry:
// the series registers at the first Sample.
type LazyGauge struct{ lazy[GaugeSeries] }

// LazyGauge returns a handle for gauge series name of m; on a nil m the
// handle is a no-op.
func (m *Metrics) LazyGauge(name string) LazyGauge {
	if m == nil {
		return LazyGauge{}
	}
	return LazyGauge{lazy[GaugeSeries]{r: &m.gauges, name: name}}
}

// Sample appends one cycle-stamped point to the series; core is -1 for
// non-core gauges. Small enough to inline, like LazyHist.Observe.
func (g *LazyGauge) Sample(cycle uint64, core int, v uint64) {
	if g.r != nil {
		g.sample(cycle, core, v)
	}
}

//go:noinline
func (g *LazyGauge) sample(cycle uint64, core int, v uint64) { g.bind().Record(cycle, core, v) }

// Hist returns histogram name, or nil if absent (or m is nil).
func (m *Metrics) Hist(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.hists.lookup(name)
}

// Gauge returns gauge series name, or nil if absent (or m is nil).
func (m *Metrics) Gauge(name string) *GaugeSeries {
	if m == nil {
		return nil
	}
	return m.gauges.lookup(name)
}

// HistNames returns histogram names in first-touch order.
func (m *Metrics) HistNames() []string {
	if m == nil {
		return nil
	}
	return m.hists.names()
}

// GaugeNames returns gauge names in first-touch order.
func (m *Metrics) GaugeNames() []string {
	if m == nil {
		return nil
	}
	return m.gauges.names()
}

// MergeHist folds a standalone histogram into histogram name, creating it
// if needed. Service workloads accumulate per-client histograms outside
// any registry (one goroutine each, no locking) and fold them in here
// after the run; the name must be documented in Glossary like any
// LazyHist site. Safe (and a no-op) on a nil registry or nil h.
func (m *Metrics) MergeHist(name string, h *Histogram) {
	if m == nil || h == nil {
		return
	}
	m.hists.cell(name).Merge(h)
}

// MergeWindowed folds a standalone windowed histogram into windowed metric
// name, creating it if needed (adopting w's width and SLO bound). Like
// MergeHist, this is the post-run fold for per-client measurements; the
// name must be documented in Glossary — statlint audits MergeWindowed
// sites as writes and Windowed calls as reads. Safe (and a no-op) on a nil
// registry or nil w.
func (m *Metrics) MergeWindowed(name string, w *Windowed) {
	if m == nil || w == nil {
		return
	}
	dst := m.wins.cell(name)
	if dst.base == 0 {
		*dst = *NewWindowed(w.BaseWidth(), w.SLO())
	}
	dst.Merge(w)
}

// Windowed returns windowed metric name, or nil if absent (or m is nil).
func (m *Metrics) Windowed(name string) *Windowed {
	if m == nil {
		return nil
	}
	return m.wins.lookup(name)
}

// WindowedNames returns windowed metric names in first-touch order.
func (m *Metrics) WindowedNames() []string {
	if m == nil {
		return nil
	}
	return m.wins.names()
}

// String renders every metric, one per line, sorted by name within
// histograms, gauges and windowed metrics — the deterministic dump behind
// bbbsim -verbose and the golden tests.
func (m *Metrics) String() string { return m.StringWith(nil) }

// StringWith renders the metrics like String but annotates each line with
// its meaning from doc (normally the package Glossary).
func (m *Metrics) StringWith(doc map[string]string) string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	m.hists.render(&b, doc, (*Histogram).Summary)
	m.gauges.render(&b, doc, (*GaugeSeries).Summary)
	m.wins.render(&b, doc, (*Windowed).Summary)
	return b.String()
}
