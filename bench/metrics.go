package main

// metric is one number the benchmark prints. The end-to-end table is what a
// timed run reports; the per-layer table is what a traced run reports. Both
// mirror BENCHMARK.json (bench_test.go keeps them equal).
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a modelled (simulated) quantity or a count: for one seed
	// it repeats exactly, so a change that only speeds the simulator up must
	// leave it identical.
	exact bool
}

var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "items_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// hostShares are the buckets the CPU-profile fold attributes samples to; they
// sum to 100. Every internal package with its own bucket is a simulator layer
// the workloads use; other.host_pct takes the root package, the bench itself
// and the small helpers (sweep, palloc, energy, trace, recovery).
var hostShares = []string{
	"cpu.host_pct", "cpu.handoff_pct", "runtime.sched_pct", "runtime.gc_pct",
	"engine.host_pct", "coherence.host_pct", "cache.host_pct", "memory.host_pct",
	"bbpb.host_pct", "persistency.host_pct", "memctrl.host_pct",
	"system.host_pct", "workload.host_pct", "crashmc.host_pct",
	"stats.host_pct", "other.host_pct",
}

var perLayer = append(shareMetrics(),
	metric{name: "engine.events", unit: "count", better: "lower", exact: true},
	metric{name: "engine.ns_per_event", unit: "ns", better: "lower"},
	metric{name: "coherence.l1_hit_ratio", unit: "ratio", better: "higher", exact: true},
	metric{name: "coherence.l2_misses", unit: "count", better: "lower", exact: true},
	metric{name: "coherence.invalidations", unit: "count", better: "lower", exact: true},
	metric{name: "bbpb.allocations", unit: "count", better: "lower", exact: true},
	metric{name: "bbpb.coalesce_ratio", unit: "ratio", better: "higher", exact: true},
	metric{name: "bbpb.rejections", unit: "count", better: "lower", exact: true},
	metric{name: "bbpb.forced_drains", unit: "count", better: "lower", exact: true},
	metric{name: "memctrl.nvmm_writes", unit: "count", better: "lower", exact: true},
	metric{name: "memctrl.wpq_full_stalls", unit: "count", better: "lower", exact: true},
	metric{name: "system.build_ms_p50", unit: "ms", better: "lower"},
	metric{name: "system.run_ms_p50", unit: "ms", better: "lower"},
	metric{name: "system.build_share_pct", unit: "%", better: "lower"},
	metric{name: "crashmc.capture_share_pct", unit: "%", better: "lower"},
	metric{name: "crashmc.enumerate_share_pct", unit: "%", better: "lower"},
	metric{name: "crashmc.validate_share_pct", unit: "%", better: "lower"},
	metric{name: "crashmc.images", unit: "count", better: "higher", exact: true},
	metric{name: "crashmc.sets", unit: "count", better: "lower", exact: true},
	metric{name: "crashmc.sets_skipped", unit: "count", better: "lower", exact: true},
	metric{name: "crashmc.dedupe_ratio", unit: "ratio", better: "lower", exact: true},
	metric{name: "crashmc.points_after_finish", unit: "count", better: "lower", exact: true},
	metric{name: "fig7.paper_err_pct", unit: "%", better: "lower", exact: true},
	metric{name: "host.cpu_util_pct", unit: "%", better: "higher"},
	metric{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
	metric{name: "runtime.num_gc", unit: "count", better: "lower"},
	metric{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
)

func shareMetrics() []metric {
	var out []metric
	for _, n := range hostShares {
		out = append(out, metric{name: n, unit: "%", better: "lower"})
	}
	return out
}

// metricByName finds a metric in either table.
func metricByName(name string) (metric, bool) {
	for _, tab := range [][]metric{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
