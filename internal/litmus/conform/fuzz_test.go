package conform

import (
	"testing"

	"bbb/internal/litmus"
)

// fuzzVars names the variables a fuzzed test may use.
var fuzzVars = []string{"x", "y"}

// decodeTest turns fuzz bytes into a litmus test of 1–3 threads × 1–4 ops
// over {St, Ld, Fl, Fn, Cs} × 1–2 variables. Byte 0 picks the thread and
// variable counts, each thread opens with its op count, and each op byte
// packs kind + 5·var + 10·old. Stores and CASes write 1, 2, … in program
// order, so every stored value is distinct and non-zero; a CAS expects old
// mod 13, which is 0, a value some store writes, or one none does. Bytes
// past the end read as zero.
func decodeTest(data []byte) *litmus.Test {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	b := next()
	threads, nvars := 1+b%3, 1+(b/3)%2
	t := &litmus.Test{Name: "fuzz", Vars: fuzzVars[:nvars]}
	val := uint64(0)
	for range threads {
		ops := make([]litmus.Op, 1+next()%4)
		for i := range ops {
			b := next()
			v := (b / 5) % nvars
			switch b % 5 {
			case 0:
				val++
				ops[i] = litmus.St(v, val)
			case 1:
				ops[i] = litmus.Ld(v)
			case 2:
				ops[i] = litmus.Fl(v)
			case 3:
				ops[i] = litmus.Fn()
			case 4:
				val++
				ops[i] = litmus.Cs(v, uint64(b/10%13), val)
			}
		}
		t.Threads = append(t.Threads, ops)
	}
	return t
}

// encodeTest encodes a test of decodeTest's shape: its op kinds,
// variables and CAS expectations survive the round trip, while the stored
// values are renumbered 1, 2, … .
func encodeTest(t *litmus.Test) []byte {
	out := []byte{byte(len(t.Threads) - 1 + 3*(len(t.Vars)-1))}
	for _, ops := range t.Threads {
		out = append(out, byte(len(ops)-1))
		for _, op := range ops {
			v := max(op.Var, 0)
			out = append(out, byte(int(op.Kind)+5*v+10*int(op.Old)))
		}
	}
	return out
}

// FuzzConform runs the conformance gate on generated litmus tests: every
// test that validates must conform under every scheme — operational
// outcomes inside the axiomatic allowed set, one image per crash point
// under the strict schemes. A failure is a simulator or model bug, printed
// with the test and the report. The seeds are corpus shapes that fit the
// encoding.
func FuzzConform(f *testing.F) {
	for _, name := range []string{"sb", "mp+fence", "lb+flush", "2+2w+fence", "cas-mp+fence", "cas-chain"} {
		tst, err := litmus.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeTest(tst))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tst := decodeTest(data)
		if tst.Validate() != nil {
			return
		}
		if rep := Run(Options{Tests: []*litmus.Test{tst}, Points: 4}); !rep.Ok() {
			t.Fatalf("threads %v do not conform:\n%s", tst.Threads, rep.String())
		}
	})
}
