package counterfix

import "bbb/internal/stats"

// The histogram/gauge registry shares the stringly-typed namespace with
// Counters; statlint audits the LazyHist/LazyGauge handle constructors as
// writes and Hist/Gauge as reads with the same three diagnostics.

type meter struct {
	m                *stats.Metrics
	documented, dead stats.LazyHist
	read             stats.LazyGauge
}

func newMeter(m *stats.Metrics) *meter {
	return &meter{
		m:          m,
		documented: m.LazyHist("hist.documented"), // in the Glossary: fine
		dead:       m.LazyHist("hist.dead"),       // want "counter .hist.dead. is incremented but never read and not documented"
		read:       m.LazyGauge("gauge.read"),     // Gauge below: fine
	}
}

func (mt *meter) observe() {
	mt.documented.Observe(1)
	mt.dead.Observe(2)
	mt.read.Sample(10, 0, 3)
}

// fold is the post-run service fold: MergeHist and MergeWindowed are write
// sites exactly like the handle constructors.
func (mt *meter) fold(h *stats.Histogram, w *stats.Windowed) {
	mt.m.MergeHist("hist.folded", h)    // Hist below: fine
	mt.m.MergeWindowed("win.read", w)   // Windowed below: fine
	mt.m.MergeWindowed("win.dead", w)   // want "counter .win.dead. is incremented but never read and not documented"
	mt.m.MergeWindowed("win.listed", w) // in the Glossary: fine
}

func (mt *meter) view() int {
	if mt.m.Gauge("gauge.read") != nil {
		return 1
	}
	if mt.m.Hist("hist.typo") != nil { // want "counter .hist.typo. is read but never incremented"
		return 2
	}
	if mt.m.Hist("hist.folded") != nil {
		return 3
	}
	if mt.m.Windowed("win.read") != nil {
		return 4
	}
	if mt.m.Windowed("win.typo") != nil { // want "counter .win.typo. is read but never incremented"
		return 5
	}
	return 0
}
