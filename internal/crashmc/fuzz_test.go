package crashmc

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseWitness feeds arbitrary bytes to the witness parser. The rule
// for every on-disk format: it either returns an error or yields a witness
// that round-trips through its JSON encoding — re-parsing the encoding
// gives the same witness, and re-encoding that gives the same bytes — and
// it never panics. The seed corpus (testdata/fuzz/FuzzParseWitness) holds
// real PMEM and BEP witnesses plus truncated and schema-skewed variants;
// it runs as a normal test, and `go test -fuzz FuzzParseWitness` explores
// further.
func FuzzParseWitness(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ParseWitness(data)
		if err != nil {
			if w != nil {
				t.Fatalf("ParseWitness returned a witness along with error %v", err)
			}
			return
		}
		enc, err := w.MarshalIndent()
		if err != nil {
			t.Fatalf("parsed witness does not encode: %v", err)
		}
		again, err := ParseWitness(enc)
		if err != nil {
			t.Fatalf("encoded witness does not parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("witness changed across a JSON round trip:\n got: %+v\nwant: %+v", again, w)
		}
		if enc2, err := again.MarshalIndent(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("witness encoding is not stable (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}
