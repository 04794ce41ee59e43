// Package counterfix is the statlint fixture: a self-contained counter
// namespace with its own Glossary registry, exercising all three
// diagnostics (dead counter, read-side typo, stale registration) plus the
// suffix matching for prefixed families.
package counterfix

import "bbb/internal/stats"

// Glossary registers this fixture's counters; statlint treats any
// package-level Glossary map literal as a registry.
var Glossary = map[string]string{
	"hist.documented": "documented and observed via stats.Metrics: fine",
	"ops.documented":  "documented and incremented: consumed via the registry",
	"ops.stale":       "nothing increments this name", // want "stats.Glossary documents .ops.stale. but nothing increments it"
	"win.listed":      "documented and folded via MergeWindowed: fine",
}

type engine struct {
	c *stats.Counters
}

func (e *engine) prefixed(suffix string) string { return "stage." + suffix }

// newEngine tallies in a constructor, where name-keyed increments are
// allowed.
func newEngine() *engine {
	e := &engine{c: stats.NewCounters()}
	e.c.Inc("ops.documented")   // in the Glossary: fine
	e.c.Inc("ops.read")         // Get below: fine
	e.c.Inc("ops.dead")         // want "counter .ops.dead. is incremented but never read and not documented"
	e.c.Add("ops.batch", 3)     // Get below: fine
	e.c.Inc(e.prefixed("done")) // nested literal: satisfies the stage.done read
	return e
}

// hot caches increment handles; the Lazy registration is the write site.
func (e *engine) hot() {
	lz := e.c.Lazy("ops.lazy") // Get below: fine
	lz.Inc()
	dead := e.c.Lazy("ops.lazydead") // want "counter .ops.lazydead. is incremented but never read and not documented"
	dead.Inc()
	pref := e.c.Lazy(e.prefixed("lazysuffix")) // nested literal: satisfies the stage.lazysuffix read
	pref.Inc()
}

func (e *engine) report() uint64 {
	total := e.c.Get("ops.read") + e.c.Get("ops.batch") + e.c.Get("stage.done")
	total += e.c.Get("ops.lazy") + e.c.Get("stage.lazysuffix")
	return total + e.c.Get("ops.typo") // want "counter .ops.typo. is read but never incremented"
}
