package stats

// Glossary is the registry of every counter the simulator increments: name
// -> one-line meaning. It serves two purposes:
//
//   - cmd/bbbvet's statlint pass cross-checks it against the code, both
//     ways: an incremented counter that is neither read with Get nor
//     documented here is reported as dead, and an entry here that nothing
//     increments is reported as stale. The stringly-typed counter
//     namespace thus behaves as if it were declared.
//   - Reporting tools annotate raw counter dumps with it (see
//     Counters.StringWith and bbbsim -verbose).
//
// Keep entries sorted and keep the one-liners in the paper's vocabulary
// (§ references where the event is a paper mechanism).
var Glossary = map[string]string{
	// Per-core battery-backed persist buffers (§III-B, §III-F).
	"bbpb.allocations":           "bbPB entries allocated for persisting stores",
	"bbpb.coalesced":             "persisting stores coalesced into a live bbPB entry",
	"bbpb.crash_drained":         "bbPB entries flushed by the battery on a crash (flush-on-fail)",
	"bbpb.drain_after_migration": "drains that completed after their entry migrated away",
	"bbpb.drains":                "bbPB entries drained to the NVMM write queue",
	"bbpb.forced_drains":         "drains forced by LLC eviction to keep dirty inclusion (§III-B)",
	"bbpb.migrated_out":          "bbPB entries migrated to a remote writer's buffer (Fig. 6 a/b)",
	"bbpb.rejections":            "persisting stores rejected by a full bbPB (Fig. 8a)",

	// clwb instruction (PMEM baseline's explicit persist path).
	"clwb.clean":      "clwb hits on clean or absent lines (lookup cost only)",
	"clwb.writebacks": "clwb writebacks of dirty lines to the memory controller",

	// Core / store-buffer events.
	"core.atomics":             "atomic read-modify-writes executed",
	"core.clwbs":               "clwb instructions executed",
	"core.compute_cycles":      "cycles spent in modelled computation between accesses",
	"core.epoch_barriers":      "epoch barriers issued (BEP programming model)",
	"core.fences":              "store fences executed (PMEM programming model)",
	"core.loads":               "loads executed",
	"core.sb_forwards":         "loads forwarded from the store buffer",
	"core.sb_full_stalls":      "stalls on a full store buffer",
	"core.sb_overlap_stalls":   "store-buffer drains stalled on an overlapping older store",
	"core.sb_reordered_drains": "store-buffer drains issued out of program order (relaxed mode)",
	"core.stores":              "stores executed",

	// Private L1D caches.
	"l1.atomics":            "atomics applied at the L1 mutation point",
	"l1.back_invalidations": "L1 copies invalidated by inclusive-L2 evictions",
	"l1.evictions":          "L1 victims evicted for fills",
	"l1.interventions":      "dirty-sharer interventions through the directory",
	"l1.invalidations":      "L1 copies invalidated by remote writers",
	"l1.load_hits":          "loads hitting the local L1D",
	"l1.load_misses":        "loads missing the local L1D",
	"l1.store_hits":         "stores hitting the local L1D in M/E",
	"l1.store_misses":       "stores missing the local L1D",
	"l1.store_prefetches":   "exclusive (store-intent) prefetches issued",
	"l1.store_upgrades":     "stores upgrading a Shared line to Modified",

	// Shared inclusive L2 (the LLC of Table III).
	"l2.evictions":          "L2 victims evicted for fills",
	"l2.hits":               "L1-miss requests hitting the L2",
	"l2.misses":             "requests missing the whole SRAM hierarchy",
	"l2.writebacks":         "dirty L2 victims written back to memory",
	"l2.writebacks_skipped": "dirty persistent victims dropped, bbPB drain covers them (§III-E)",

	// Histogram / gauge metrics (tracing only; see Metrics). statlint
	// audits LazyHist/LazyGauge handle sites against these entries exactly
	// like counter increments.
	"bbpb.occupancy":         "gauge: live bbPB entries per core over time",
	"bbpb.residency":         "histogram: cycles a bbPB entry lived from allocation to drain",
	"cpu.sb_residency":       "histogram: cycles a store sat in the store buffer before its L1 commit",
	"l2.miss_latency":        "histogram: cycles to fill an L2 miss from memory",
	"persist.vis_to_dur_gap": "histogram: cycles from store visibility (L1 commit) to durability (§III PoV/PoP gap)",
	"vpb.occupancy":          "gauge: live volatile persist-buffer entries per core over time",
	"wpq.depth":              "gauge: NVMM write-pending-queue depth over time",
	"wpq.residency":          "histogram: cycles a write waited in the NVMM WPQ before reaching the medium",

	// KV service tier (internal/kvservice): request-level latency measured
	// against the deterministic arrival schedule, folded into Result.Metrics
	// after the run (MergeHist), so `Result` carries p50/p95/p99 per scheme.
	"kv.batch_size":  "histogram: requests per committed service batch",
	"kv.lat":         "histogram: cycles from request arrival to durable batch commit",
	"kv.lat.delete":  "histogram: delete-request latency in cycles",
	"kv.lat.get":     "histogram: get-request latency in cycles",
	"kv.lat.put":     "histogram: put-request latency in cycles",
	"kv.lat.scan":    "histogram: scan-request latency in cycles",
	"kv.lat.win":     "windowed: per-time-window latency percentiles and SLO over-counts (bbbkv -timeline)",
	"kv.lat.win.p50": "gauge: per-window median latency over time, projected from kv.lat.win",
	"kv.lat.win.p99": "gauge: per-window p99 latency over time, projected from kv.lat.win",
	"kv.queue_delay": "histogram: cycles a request waited before its batch opened",

	// Durability provenance (tracing only): commit-to-durable matching.
	"persist.resolved_stores":   "committed persisting stores matched to a durability event",
	"persist.unresolved_stores": "committed persisting stores never observed durable (would need flush-on-fail)",

	// Persisting-store admission (§III-D ordering invariants).
	"store.persist_commit_waits": "commits re-stalled when the reserved bbPB slot vanished",
	"store.persist_rejected":     "stores stalled at issue because the bbPB could not accept",
	"store.persisting":           "stores that entered the persistence domain at L1-commit",

	// Volatile epoch persist buffers (BEP comparison design, §III-A).
	"vpb.allocations":   "volatile persist-buffer entries allocated",
	"vpb.coalesced":     "stores coalesced into same-epoch volatile entries",
	"vpb.crash_lost":    "buffered lines lost at a crash (no battery, the BEP hazard)",
	"vpb.drains":        "volatile persist-buffer entries drained in epoch order",
	"vpb.epochs":        "epoch boundaries recorded",
	"vpb.forced_drains": "epoch-ordered drains forced by LLC evictions",
	"vpb.rejections":    "stores rejected by a full volatile persist buffer",

	// Memory controllers (per-controller prefix: dram. / nvmm.).
	"dram.crash_drained":   "DRAM WPQ entries flushed at the crash point",
	"dram.reads":           "line reads served by the DRAM controller",
	"dram.wpq_coalesced":   "writes coalesced into a pending DRAM WPQ entry",
	"dram.wpq_drains":      "DRAM WPQ entries drained to the medium",
	"dram.wpq_full_stalls": "writes stalled on a full DRAM WPQ",
	"dram.wpq_read_hits":   "reads served from the DRAM WPQ",
	"dram.writes":          "line writes accepted by the DRAM controller",
	"nvmm.crash_drained":   "NVMM WPQ entries flushed at the crash point (ADR domain)",
	"nvmm.reads":           "line reads served by the NVMM controller",
	"nvmm.wpq_coalesced":   "writes coalesced into a pending NVMM WPQ entry",
	"nvmm.wpq_drains":      "NVMM WPQ entries drained to the persistent medium",
	"nvmm.wpq_full_stalls": "writes stalled on a full NVMM WPQ",
	"nvmm.wpq_read_hits":   "reads served from the NVMM WPQ",
	"nvmm.writes":          "line writes accepted by the NVMM controller (Fig. 7b metric)",
}
