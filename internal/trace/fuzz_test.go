package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// encodeJSONL renders events through the JSONLSink, the stream format
// ParseJSONL reads back.
func encodeJSONL(t *testing.T, evs []Event) []byte {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	for _, e := range evs {
		s.Write(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseJSONL feeds arbitrary bytes to the trace-stream parser. The
// rule for every on-disk format: it either returns an error or yields
// events that round-trip through NewJSONL — re-parsing the encoding gives
// the same events, and re-encoding those gives the same bytes — and it
// never panics. The seed corpus (testdata/fuzz/FuzzParseJSONL) holds a
// slice of a real crash stream plus truncated, unknown-kind,
// out-of-range-core and bad-addr lines; it runs as a normal test, and
// `go test -fuzz FuzzParseJSONL` explores further.
func FuzzParseJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			if evs != nil {
				t.Fatalf("ParseJSONL returned events along with error %v", err)
			}
			return
		}
		enc := encodeJSONL(t, evs)
		again, err := ParseJSONL(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("encoded stream does not parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(evs, again) {
			t.Fatalf("events changed across a JSONL round trip:\n got: %+v\nwant: %+v", again, evs)
		}
		if enc2 := encodeJSONL(t, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("JSONL encoding is not stable:\n%s\n%s", enc, enc2)
		}
	})
}
