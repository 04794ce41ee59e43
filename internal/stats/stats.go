// Package stats provides the lightweight counters and summary helpers used
// by the simulator and by the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counters is a named set of monotonically increasing counters.
type Counters struct {
	m     map[string]*uint64
	order []string
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*uint64)}
}

// Cell returns a pointer to name's counter cell, registering the counter
// (at its first-touch position in Names) if needed. The pointer stays valid
// for the Counters' lifetime, so hot paths can increment through it without
// repeating the string-map lookup.
func (c *Counters) Cell(name string) *uint64 {
	p := c.m[name]
	if p == nil {
		p = new(uint64)
		c.m[name] = p
		c.order = append(c.order, name)
	}
	return p
}

// Add increments counter name by n, creating it if needed.
func (c *Counters) Add(name string, n uint64) { *c.Cell(name) += n }

// Inc increments counter name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of counter name (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	if p := c.m[name]; p != nil {
		return *p
	}
	return 0
}

// Lazy is a cached handle to one counter for per-event hot paths. The
// counter registers at the first Inc/Add — not at handle creation — so a
// never-touched counter stays out of Names and rendered listings, exactly
// as if the call sites still used Counters.Inc directly.
type Lazy struct {
	c    *Counters
	name string
	p    *uint64
}

// Lazy returns a handle for name bound to c.
func (c *Counters) Lazy(name string) Lazy { return Lazy{c: c, name: name} }

// Add increments the counter by n.
func (l *Lazy) Add(n uint64) {
	if l.p == nil {
		l.p = l.c.Cell(l.name)
	}
	*l.p += n
}

// Inc increments the counter by one.
func (l *Lazy) Inc() { l.Add(1) }

// Names returns counter names in first-touch order.
func (c *Counters) Names() []string { return append([]string(nil), c.order...) }

// Merge adds every counter from other into c.
func (c *Counters) Merge(other *Counters) {
	for _, n := range other.order {
		c.Add(n, *other.m[n])
	}
}

// String renders the counters, one per line, for logs and CLIs.
func (c *Counters) String() string {
	var b strings.Builder
	names := c.Names()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %12d\n", n, *c.m[n])
	}
	return b.String()
}

// StringWith renders the counters like String but annotates each line with
// its meaning from doc (normally the package Glossary).
func (c *Counters) StringWith(doc map[string]string) string {
	var b strings.Builder
	names := c.Names()
	sort.Strings(names)
	for _, n := range names {
		if d := doc[n]; d != "" {
			fmt.Fprintf(&b, "%-32s %12d  # %s\n", n, *c.m[n], d)
		} else {
			fmt.Fprintf(&b, "%-32s %12d\n", n, *c.m[n])
		}
	}
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
