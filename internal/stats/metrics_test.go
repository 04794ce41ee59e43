package stats

import (
	"reflect"
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	if h.Mean() != 0 || h.P50() != 0 || h.P99() != 0 {
		t.Fatal("empty histogram stats not zero")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(42)
	if h.Count() != 1 || h.Min() != 42 || h.Max() != 42 || h.Mean() != 42 {
		t.Fatalf("n=%d min=%d max=%d mean=%g", h.Count(), h.Min(), h.Max(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("Quantile(%g) = %g, want 42", q, got)
		}
	}
}

func TestHistogramZeros(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(0)
	}
	if h.P50() != 0 || h.P99() != 0 || h.Max() != 0 {
		t.Fatalf("all-zero histogram: p50=%g p99=%g max=%d", h.P50(), h.P99(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 90 zeros and 10 large values: p50 must be 0, p99 must not be — the
	// exact shape of a BBB (zero gap) vs PMEM (WPQ-bound tail) comparison.
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if h.P50() != 0 {
		t.Fatalf("p50 = %g, want 0", h.P50())
	}
	if h.P99() < 500 {
		t.Fatalf("p99 = %g, want near 1000", h.P99())
	}
	if h.Quantile(1) != 1000 {
		t.Fatalf("Quantile(1) = %g", h.Quantile(1))
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v * 7 % 1009)
	}
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: Q(%g)=%g < %g", q, got, prev)
		}
		if got < float64(h.Min()) || got > float64(h.Max()) {
			t.Fatalf("Quantile(%g)=%g outside [%d,%d]", q, got, h.Min(), h.Max())
		}
		prev = got
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for v := uint64(0); v < 50; v++ {
		a.Observe(v)
		whole.Observe(v)
	}
	for v := uint64(50); v < 100; v++ {
		b.Observe(v * v)
		whole.Observe(v * v)
	}
	a.Merge(&b)
	if a != whole {
		t.Fatal("merged histogram differs from whole")
	}
	a.Merge(nil) // must be a no-op
	var empty Histogram
	a.Merge(&empty)
	if a != whole {
		t.Fatal("merging nil/empty changed the histogram")
	}
}

func TestHistogramSummaryStable(t *testing.T) {
	var a, b Histogram
	for v := uint64(0); v < 1000; v++ {
		a.Observe(v % 37)
		b.Observe(v % 37)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("identical inputs, different summaries:\n%s\n%s", a.Summary(), b.Summary())
	}
	if !strings.Contains(a.Summary(), "p99=") {
		t.Fatalf("Summary missing p99: %s", a.Summary())
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		i      int
		lo, hi uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{10, 512, 1023},
		{64, 1 << 63, ^uint64(0)},
	}
	for _, c := range cases {
		lo, hi := bucketBounds(c.i)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("bucketBounds(%d) = [%d,%d], want [%d,%d]", c.i, lo, hi, c.lo, c.hi)
		}
	}
}

func TestGaugeSeriesBasic(t *testing.T) {
	var g GaugeSeries
	g.Record(10, 0, 3)
	g.Record(20, 1, 7)
	g.Record(30, -1, 5)
	if g.Count() != 3 || g.Max() != 7 {
		t.Fatalf("n=%d max=%d", g.Count(), g.Max())
	}
	pts := g.Points()
	want := []GaugePoint{{10, 0, 3}, {20, 1, 7}, {30, -1, 5}}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("Points = %v", pts)
	}
	if g.Last() != (GaugePoint{30, -1, 5}) {
		t.Fatalf("Last = %v", g.Last())
	}
}

func TestGaugeSeriesDecimation(t *testing.T) {
	var g GaugeSeries
	const n = gaugeCap * 5
	for i := uint64(0); i < n; i++ {
		g.Record(i, 0, i)
	}
	if g.Count() != n || g.Max() != n-1 {
		t.Fatalf("n=%d max=%d", g.Count(), g.Max())
	}
	pts := g.Points()
	if len(pts) > gaugeCap {
		t.Fatalf("retained %d points, cap is %d", len(pts), gaugeCap)
	}
	if len(pts) < gaugeCap/4 {
		t.Fatalf("decimated too aggressively: %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cycle <= pts[i-1].Cycle {
			t.Fatalf("points out of order at %d: %v then %v", i, pts[i-1], pts[i])
		}
	}
	// Determinism: the same offered stream retains the same points.
	var g2 GaugeSeries
	for i := uint64(0); i < n; i++ {
		g2.Record(i, 0, i)
	}
	if !reflect.DeepEqual(g.Points(), g2.Points()) {
		t.Fatal("decimation is not deterministic")
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.Observe("x", 1)
	m.Sample("y", 10, 0, 2)
	m.Merge(NewMetrics())
	if m.Hist("x") != nil || m.Gauge("y") != nil {
		t.Fatal("nil Metrics returned a metric")
	}
	if m.HistNames() != nil || m.GaugeNames() != nil || m.String() != "" {
		t.Fatal("nil Metrics not empty")
	}
}

// The disabled-metrics path must cost nothing: components call
// Observe/Sample unconditionally on a possibly-nil registry, the same
// contract the nil trace recorder pins.
func TestMetricsDisabledPathZeroAlloc(t *testing.T) {
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe("system.durability_gap", 17)
		m.Sample("bbpb.occupancy", 12345, 2, 6)
	})
	if allocs != 0 {
		t.Fatalf("nil Metrics path allocates %g allocs/op, want 0", allocs)
	}
}

func TestMetricsObserveAndNames(t *testing.T) {
	m := NewMetrics()
	m.Observe("b", 2)
	m.Observe("a", 1)
	m.Observe("b", 4)
	m.Sample("g", 5, -1, 9)
	if got := m.HistNames(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("HistNames = %v", got)
	}
	if got := m.GaugeNames(); !reflect.DeepEqual(got, []string{"g"}) {
		t.Fatalf("GaugeNames = %v", got)
	}
	if m.Hist("b").Count() != 2 || m.Hist("a").Count() != 1 {
		t.Fatal("histogram counts wrong")
	}
	if m.Gauge("g").Max() != 9 {
		t.Fatal("gauge max wrong")
	}
	if m.Hist("missing") != nil || m.Gauge("missing") != nil {
		t.Fatal("missing metric not nil")
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Observe("x", 1)
	b.Observe("x", 3)
	b.Observe("y", 5)
	b.Sample("g", 1, 0, 1) // gauges must NOT merge
	a.Merge(b)
	if a.Hist("x").Count() != 2 || a.Hist("x").Sum() != 4 {
		t.Fatal("x not merged")
	}
	if a.Hist("y").Count() != 1 {
		t.Fatal("y not created by merge")
	}
	if a.Gauge("g") != nil {
		t.Fatal("gauge leaked through Merge")
	}
}

func TestMetricsStringSortedAndStable(t *testing.T) {
	m := NewMetrics()
	m.Observe("zz", 1)
	m.Observe("aa", 2)
	m.Sample("mm", 1, 0, 3)
	s := m.String()
	if strings.Index(s, "aa") > strings.Index(s, "zz") {
		t.Fatalf("String not sorted:\n%s", s)
	}
	if s != m.String() {
		t.Fatal("String not stable")
	}
	annotated := m.StringWith(map[string]string{"aa": "doc line"})
	if !strings.Contains(annotated, "# doc line") {
		t.Fatalf("StringWith missing annotation:\n%s", annotated)
	}
}

// Satellite: Merge must be deterministic — same merge sequence, same
// Names() order and same rendered output, run after run.
func TestCountersMergeOrderingDeterminism(t *testing.T) {
	build := func() *Counters {
		total := NewCounters()
		for shard := 0; shard < 8; shard++ {
			c := NewCounters()
			c.Add("zeta", uint64(shard))
			c.Inc("alpha")
			c.Add("mid", 2)
			total.Merge(c)
		}
		return total
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		t.Fatalf("Names differ across identical merges: %v vs %v", a.Names(), b.Names())
	}
	if a.String() != b.String() {
		t.Fatal("String differs across identical merges")
	}
	// First-touch order must follow the merge sequence, not map order.
	if want := []string{"zeta", "alpha", "mid"}; !reflect.DeepEqual(a.Names(), want) {
		t.Fatalf("Names = %v, want %v", a.Names(), want)
	}
}
