package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Sink consumes a stream of trace events. Sinks are single-goroutine,
// matching the simulator's deterministic event loop.
type Sink interface {
	// Write accepts one event. Implementations must not reorder events.
	Write(e Event)
	// Flush pushes any buffered output to its destination.
	Flush() error
}

// RingSink keeps the most recent capacity events — the tail a user
// debugging a persistency bug wants, at fixed memory cost.
type RingSink struct {
	ring    []Event
	next    int
	wrapped bool
}

// NewRing returns a ring sink keeping the last capacity events.
func NewRing(capacity int) *RingSink {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &RingSink{ring: make([]Event, capacity)}
}

// Write implements Sink (allocation-free).
func (s *RingSink) Write(e Event) {
	s.ring[s.next] = e
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.wrapped = true
	}
}

// Flush implements Sink (nothing buffered).
func (s *RingSink) Flush() error { return nil }

// Len reports how many events are retained.
func (s *RingSink) Len() int {
	if s.wrapped {
		return len(s.ring)
	}
	return s.next
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	if !s.wrapped {
		return append([]Event(nil), s.ring[:s.next]...)
	}
	out := make([]Event, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// JSONLSink streams events as JSON lines (one object per event) to an
// io.Writer, typically a file. Fields are written in a fixed order by
// hand — no map marshalling — so output is byte-deterministic, and every
// field is a cycle stamp or architectural value (never wall-clock time).
type JSONLSink struct {
	w   *bufio.Writer
	err error
}

// NewJSONL returns a sink streaming JSON lines to w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Write implements Sink.
func (s *JSONLSink) Write(e Event) {
	if s.err != nil {
		return
	}
	_, s.err = fmt.Fprintf(s.w, `{"cycle":%d,"kind":%q,"core":%d,"addr":"%#x","aux":%d}`+"\n",
		e.Cycle, e.Kind.String(), e.Core, e.Addr, e.Aux)
}

// Flush implements Sink, reporting the first write error encountered.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// jsonlEvent mirrors the JSONL wire format for parsing.
type jsonlEvent struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Core  int    `json:"core"`
	Addr  string `json:"addr"`
	Aux   uint64 `json:"aux"`
}

// ParseJSONL reads a JSON-lines trace stream (the JSONLSink format) back
// into events. Blank lines are skipped; any malformed line is an error.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		k, ok := ParseKind(je.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, je.Kind)
		}
		if je.Core < -1 || je.Core > MaxCore {
			return nil, fmt.Errorf("trace: line %d: core %d outside [-1, %d]", line, je.Core, MaxCore)
		}
		addr, err := strconv.ParseUint(je.Addr, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad addr %q: %w", line, je.Addr, err)
		}
		out = append(out, Event{Cycle: je.Cycle, Kind: k, Core: int16(je.Core), Addr: addr, Aux: je.Aux})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}
