package counterfix

import "bbb/internal/stats"

// One counter idiom: a name-keyed Inc/Add is allowed only where it runs
// once — a constructor's own body. Per-event code bumps a stats.Lazy
// handle resolved in the constructor; any other site needs an audited
// //bbbvet:ignore statlint <reason>.

type core struct {
	Stats  *stats.Counters
	nLoads stats.Lazy
	onDone func()
}

func newCore() *core {
	c := &core{Stats: stats.NewCounters()}
	c.Stats.Add("core.loads", 0) // constructor body: fine
	c.nLoads = c.Stats.Lazy("core.loads")
	c.onDone = func() {
		c.Stats.Inc("core.loads") // want "name-keyed Counters.Inc outside a constructor"
	}
	return c
}

// handle is the per-event path.
func (c *core) handle() {
	c.nLoads.Inc()               // handle: fine
	c.Stats.Inc("core.loads")    // want "name-keyed Counters.Inc outside a constructor"
	c.Stats.Add("core.loads", 2) // want "name-keyed Counters.Add outside a constructor"
}

// crashDrain runs once, at the crash.
func (c *core) crashDrain(n uint64) {
	//bbbvet:ignore statlint crash drain, once per run: suppressed
	c.Stats.Add("core.loads", n)
	c.Stats.Add("core.loads", n) // want "name-keyed Counters.Add outside a constructor"
}

func (c *core) loads() uint64 { return c.Stats.Get("core.loads") }

// newest is not a constructor: only New/new followed by a capital is.
func newest(c *core) {
	c.Stats.Inc("core.loads") // want "name-keyed Counters.Inc outside a constructor"
}
