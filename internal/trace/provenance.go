package trace

import "bbb/internal/stats"

// Durability provenance: the observability heart of the BBB argument.
// The paper's §III gap is the distance between the point of visibility
// (a store commits to the L1D and other cores can see it) and the point
// of persistency (the value is safe across power failure). Provenance
// watches the event stream, tags every persisting-store commit with its
// visibility cycle, matches it to the event that made the line durable,
// and feeds the per-store gap into the persist.vis_to_dur_gap histogram:
//
//   - BBB/BBB-proc: the bbPB allocation (or coalesce) in the same commit
//     cycle — the near-zero gap the paper claims;
//   - eADR/NVCache: the commit itself (battery covers the caches);
//   - PMEM/BEP: acceptance into the ADR write-pending queue, which a
//     line only reaches via clwb, eviction, or an epoch drain — the
//     long, workload-dependent tail BBB removes;
//   - any scheme: a crash-time battery/ADR drain (flush-on-fail) also
//     makes a pending line durable, at the crash cycle.
//
// Stores whose line never reaches the durability point (still dirty in a
// volatile cache when the machine stops) stay unresolved and are counted,
// never silently dropped.

// DurabilityPoint says which event marks a committed store durable.
type DurabilityPoint uint8

const (
	// DurableAtCommit: visibility and persistency coincide (eADR,
	// NVCache — battery-backed or nonvolatile caches).
	DurableAtCommit DurabilityPoint = iota
	// DurableAtBufAlloc: bbPB allocation/coalesce persists the store
	// (BBB, BBB-proc).
	DurableAtBufAlloc
	// DurableAtWPQ: acceptance into the ADR write-pending queue persists
	// the line (PMEM, BEP).
	DurableAtWPQ
)

func (p DurabilityPoint) String() string {
	switch p {
	case DurableAtCommit:
		return "at-commit"
	case DurableAtBufAlloc:
		return "at-bbpb-alloc"
	case DurableAtWPQ:
		return "at-wpq"
	default:
		return "unknown"
	}
}

// Provenance is a Sink that matches store commits to their durability
// events. Attach it to a Recorder; read the result from the Metrics
// registry (histogram persist.vis_to_dur_gap) and Resolved/Unresolved.
type Provenance struct {
	point DurabilityPoint
	gap   stats.LazyHist
	// pending maps a line address to the visibility cycles of committed
	// stores to that line that are not yet durable.
	pending      map[uint64][]uint64
	pendingCount uint64
	resolved     uint64
}

// NewProvenance returns a tracker that resolves durability at point and
// observes gaps into m (which may be nil to only count).
func NewProvenance(point DurabilityPoint, m *stats.Metrics) *Provenance {
	return &Provenance{point: point, gap: m.LazyHist("persist.vis_to_dur_gap"), pending: make(map[uint64][]uint64)}
}

// Point returns the configured durability point.
func (p *Provenance) Point() DurabilityPoint { return p.point }

// Write implements Sink.
func (p *Provenance) Write(e Event) {
	switch e.Kind {
	// KindAtomic marks CAS attempts (including failed and non-persistent
	// ones); the coherence layer emits a paired KindStoreCommit for the
	// CAS writes that actually persist, so only commits are tracked here.
	case KindStoreCommit:
		if p.point == DurableAtCommit {
			p.gap.Observe(0)
			p.resolved++
			return
		}
		p.pending[e.Addr] = append(p.pending[e.Addr], e.Cycle)
		p.pendingCount++
	case KindBufAlloc, KindBufCoalesce:
		if p.point == DurableAtBufAlloc {
			p.resolve(e.Addr, e.Cycle)
		}
	case KindWPQInsert:
		if p.point == DurableAtWPQ {
			p.resolve(e.Addr, e.Cycle)
		}
	case KindCrashDrain:
		// Flush-on-fail: the battery/ADR drain persists the line now,
		// whatever the scheme's steady-state durability point.
		p.resolve(e.Addr, e.Cycle)
	}
}

// Flush implements Sink.
func (p *Provenance) Flush() error { return nil }

func (p *Provenance) resolve(addr, cycle uint64) {
	cycles := p.pending[addr]
	if len(cycles) == 0 {
		return
	}
	for _, c := range cycles {
		gap := uint64(0)
		if cycle > c {
			gap = cycle - c
		}
		p.gap.Observe(gap)
	}
	p.resolved += uint64(len(cycles))
	p.pendingCount -= uint64(len(cycles))
	delete(p.pending, addr)
}

// Resolved returns how many committed stores have been matched to a
// durability event.
func (p *Provenance) Resolved() uint64 { return p.resolved }

// Unresolved returns how many committed stores are still awaiting one —
// at end of run these are the stores that were visible but would have
// been lost without flush-on-fail.
func (p *Provenance) Unresolved() uint64 { return p.pendingCount }
