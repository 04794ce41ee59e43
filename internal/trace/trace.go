// Package trace provides the simulator's event-tracing layer. When
// enabled, components emit one fixed-size record per interesting
// microarchitectural event (persisting-store commits, bbPB
// allocations/coalesces/drains/migrations, coherence invalidations, WPQ
// traffic, epoch marks, crash drains). Records flow through a Recorder
// into pluggable sinks — a bounded ring for tail debugging or a
// JSON-lines stream for offline tooling — and can be exported as a
// Perfetto/Chrome trace or fed to the durability-provenance tracker.
// Everything is cycle-stamped: no wall clock anywhere, so traces of the
// same seed are byte-identical.
package trace

import (
	"fmt"
	"io"
	"math"
)

// Kind classifies an event.
type Kind uint8

// Event kinds, grouped by component.
const (
	KindNone Kind = iota
	// Core events.
	KindStoreCommit // a persisting store wrote the L1D (Aux = value low bits)
	KindClwb
	KindFence
	KindEpochMark
	KindAtomic
	// Persist-buffer events. Aux = buffer occupancy after the operation,
	// except KindBufMigrate (Aux = destination core).
	KindBufAlloc
	KindBufCoalesce
	KindBufDrain
	KindBufForcedDrain
	KindBufMigrate // Aux = destination core
	KindBufReject
	KindBufCrashLost
	// Coherence events.
	KindInvalidate // Aux = requesting core
	KindIntervene  // Aux = requesting core
	KindLLCEvict   // Aux = 1 if writeback, 0 if dropped
	// Memory-controller events. Aux = WPQ depth after the operation.
	KindWPQInsert
	KindWPQDrain
	KindCrashDrain
)

func (k Kind) String() string {
	switch k {
	case KindStoreCommit:
		return "store-commit"
	case KindClwb:
		return "clwb"
	case KindFence:
		return "fence"
	case KindEpochMark:
		return "epoch"
	case KindAtomic:
		return "atomic"
	case KindBufAlloc:
		return "pb-alloc"
	case KindBufCoalesce:
		return "pb-coalesce"
	case KindBufDrain:
		return "pb-drain"
	case KindBufForcedDrain:
		return "pb-forced-drain"
	case KindBufMigrate:
		return "pb-migrate"
	case KindBufReject:
		return "pb-reject"
	case KindBufCrashLost:
		return "pb-crash-lost"
	case KindInvalidate:
		return "invalidate"
	case KindIntervene:
		return "intervene"
	case KindLLCEvict:
		return "llc-evict"
	case KindWPQInsert:
		return "wpq-insert"
	case KindWPQDrain:
		return "wpq-drain"
	case KindCrashDrain:
		return "crash-drain"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind inverts Kind.String. It reports false for unknown names.
func ParseKind(s string) (Kind, bool) {
	for k := KindNone + 1; k <= KindCrashDrain; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return KindNone, false
}

// Event is one fixed-size trace record.
type Event struct {
	Cycle uint64
	Kind  Kind
	Core  int16 // -1 when not core-specific
	Addr  uint64
	Aux   uint64
}

// MaxCore is the largest core id an Event can carry; Emit panics beyond
// it rather than silently truncating (a 40000-core machine would
// otherwise alias down to a small id and corrupt every per-core view).
const MaxCore = math.MaxInt16

// Recorder is the tracing front-end. Every Emit lands in the retention
// ring, if any (queryable afterwards), and is forwarded to any attached
// streaming sinks. The zero Recorder retains nothing: it only forwards,
// so a streamed run holds no events in memory. A nil *Recorder is a
// valid, disabled recorder: Emit on nil is an allocation-free no-op, so
// components hold one unconditionally.
type Recorder struct {
	ring  *RingSink
	sinks []Sink
	// Emitted counts all events ever emitted, including ones a ring
	// retention sink has overwritten.
	Emitted uint64
}

// New returns a recorder whose retention sink keeps the last capacity
// events (a ring — the cheap tail-debugging default).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Recorder{ring: NewRing(capacity)}
}

// Attach adds a streaming sink that receives every subsequent event
// (in addition to the retention sink). Safe on a nil recorder (no-op).
func (r *Recorder) Attach(s Sink) {
	if r == nil {
		return
	}
	r.sinks = append(r.sinks, s)
}

// Emit records one event. Safe on a nil recorder: the disabled check is
// small enough to inline into every component's emit site. It panics if
// core is outside [-1, MaxCore]: Event stores cores as int16 and silent
// truncation would misattribute events.
func (r *Recorder) Emit(cycle uint64, kind Kind, core int, addr, aux uint64) {
	if r != nil {
		r.emit(cycle, kind, core, addr, aux)
	}
}

func (r *Recorder) emit(cycle uint64, kind Kind, core int, addr, aux uint64) {
	if core < -1 || core > MaxCore {
		panic(fmt.Sprintf("trace: core %d outside [-1, %d]", core, MaxCore))
	}
	e := Event{Cycle: cycle, Kind: kind, Core: int16(core), Addr: addr, Aux: aux}
	if r.ring != nil {
		r.ring.Write(e)
	}
	for _, s := range r.sinks {
		s.Write(e)
	}
	r.Emitted++
}

// Flush flushes every attached sink, returning the first error. Safe on
// a nil recorder.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	var err error
	for _, s := range r.sinks {
		if e := s.Flush(); err == nil {
			err = e
		}
	}
	return err
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int {
	if r == nil || r.ring == nil {
		return 0
	}
	return r.ring.Len()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil || r.ring == nil {
		return nil
	}
	return r.ring.Events()
}

// Dump writes the retained events, one per line, oldest first.
func (r *Recorder) Dump(w io.Writer) {
	for _, e := range r.Events() {
		core := "  -"
		if e.Core >= 0 {
			core = fmt.Sprintf("c%02d", e.Core)
		}
		fmt.Fprintf(w, "%12d %s %-16s addr=%#012x aux=%d\n", e.Cycle, core, e.Kind, e.Addr, e.Aux)
	}
}

// CountByKind tallies retained events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}
