// Package stats provides the named statistics of a simulation — counters
// (Counters), histograms and gauge timelines (Metrics) — and the summary
// helpers used by the simulator and by the benchmark harness.
//
// Every named statistic lives in one kind of registry: a map from name to
// cell that remembers the order in which names were first written, so
// listings are deterministic and a never-written name never appears. Hot
// paths write through handles resolved once in a component's constructor
// (Counters.Lazy, Metrics.LazyHist, Metrics.LazyGauge); a handle binds its
// cell at its first write, so names register in the same first-touch order
// as a name-keyed write would give.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// registry is a named set of *T cells in first-touch order. The zero value
// is empty and ready to use.
type registry[T any] struct {
	m     map[string]*T
	order []string
}

// cell returns name's cell, creating it (zero-valued, at the end of the
// first-touch order) on first touch. The pointer stays valid for the
// registry's lifetime.
func (r *registry[T]) cell(name string) *T {
	p := r.m[name]
	if p == nil {
		if r.m == nil {
			r.m = make(map[string]*T)
		}
		p = new(T)
		r.m[name] = p
		r.order = append(r.order, name)
	}
	return p
}

// lookup returns name's cell, or nil if it was never touched.
func (r *registry[T]) lookup(name string) *T { return r.m[name] }

// names returns the names in first-touch order.
func (r *registry[T]) names() []string { return append([]string(nil), r.order...) }

// render writes one line per cell, sorted by name: the name, the cell's
// summary and, when doc documents the name, its meaning after a "#".
func (r *registry[T]) render(b *strings.Builder, doc map[string]string, summary func(*T) string) {
	names := r.names()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "%-32s %s", n, summary(r.m[n]))
		if d := doc[n]; d != "" {
			fmt.Fprintf(b, "  # %s", d)
		}
		b.WriteByte('\n')
	}
}

// lazy is a handle to one registry cell, bound at the handle's first write
// rather than at its creation: a never-written name stays out of the
// registry, exactly as if its writes were name-keyed.
type lazy[T any] struct {
	r    *registry[T]
	name string
	p    *T
}

func (l *lazy[T]) bind() *T {
	if l.p == nil {
		l.p = l.r.cell(l.name)
	}
	return l.p
}

// Counters is a named set of monotonically increasing counters.
type Counters struct{ reg registry[uint64] }

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// Add increments counter name by n, creating it if needed.
func (c *Counters) Add(name string, n uint64) { *c.reg.cell(name) += n }

// Inc increments counter name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of counter name (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	if p := c.reg.lookup(name); p != nil {
		return *p
	}
	return 0
}

// Lazy is a cached handle to one counter for per-event hot paths. The
// counter registers at the first Inc/Add — not at handle creation — so a
// never-touched counter stays out of Names and rendered listings, exactly
// as if the call sites still used Counters.Inc directly.
type Lazy struct{ lazy[uint64] }

// Lazy returns a handle for name bound to c.
func (c *Counters) Lazy(name string) Lazy { return Lazy{lazy[uint64]{r: &c.reg, name: name}} }

// Add increments the counter by n.
func (l *Lazy) Add(n uint64) { *l.bind() += n }

// Inc increments the counter by one.
func (l *Lazy) Inc() { l.Add(1) }

// Names returns counter names in first-touch order.
func (c *Counters) Names() []string { return c.reg.names() }

// Merge adds every counter from other into c.
func (c *Counters) Merge(other *Counters) {
	for _, n := range other.reg.order {
		c.Add(n, *other.reg.m[n])
	}
}

// String renders the counters, one per line sorted by name, for logs and
// CLIs.
func (c *Counters) String() string { return c.StringWith(nil) }

// StringWith renders the counters like String but annotates each line with
// its meaning from doc (normally the package Glossary).
func (c *Counters) StringWith(doc map[string]string) string {
	var b strings.Builder
	c.reg.render(&b, doc, func(v *uint64) string { return fmt.Sprintf("%12d", *v) })
	return b.String()
}

// Geomean returns the geometric mean of xs. It panics on an empty slice and
// on non-positive values, which would indicate a broken normalization.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Geomean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs (0 for an empty slice).
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Ratio returns a/b, guarding against divide-by-zero: if b is 0 it returns
// 0 when a is also 0 and +Inf otherwise.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return a / b
}
