package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"bbb/internal/cpu"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/palloc"
)

// twinsGoldenPath holds one sha256 per (workload, persist mode, seed) of the
// machine-op trace each program body performs. The nine workloads in it once
// had a hand-written compiled-IR twin; every digest was recorded while both
// twins still existed and produced the identical trace, so the file is the
// last cross-checked record of those bodies' machine-op sequences.
const twinsGoldenPath = "testdata/twins.golden"

// TestIRTwinsPinned pins the machine-op sequence of the workloads that used
// to carry a compiled-IR twin: same loads, stores, flushes, fences, epochs
// and compute, same addresses, sizes and values, in the same order, under
// all three persist-expansion modes. pressurelint and persistlint analyze
// these cpu.Env bodies' source, and their certificates were validated
// against the traces pinned here.
//
// Each body executes functionally (no engine, no caches): every thread runs
// to completion against the post-Setup memory image, so the digest is a
// pure function of the program logic. A deliberate change to one of these
// bodies updates its lines in the golden with the digests the failure
// prints.
func TestIRTwinsPinned(t *testing.T) {
	f, err := os.Open(twinsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	modes := map[string]persistMode{
		"battery":  {},
		"epoch":    {epoch: true},
		"explicit": {explicit: true},
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, want, ok := strings.Cut(sc.Text(), " ")
		parts := strings.Split(key, "/")
		if !ok || len(parts) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		mode, known := modes[parts[1]]
		var seed int64
		if _, err := fmt.Sscanf(parts[2], "seed%d", &seed); err != nil || !known {
			t.Fatalf("malformed golden key %q", key)
		}
		t.Run(key, func(t *testing.T) {
			w, err := ByName(parts[0])
			if err != nil {
				t.Fatal(err)
			}
			p := Params{Threads: 4, OpsPerThread: 40, Seed: seed}
			layout := memory.DefaultLayout()
			mem := memory.New(layout)
			w.Setup(mem, palloc.FromLayout(layout), p)
			progs := w.Programs(p)
			if len(progs) != p.Threads {
				t.Fatalf("program count %d, want %d", len(progs), p.Threads)
			}
			traces := make([][]mop, p.Threads)
			for th := range traces {
				traces[th] = runEnvTwin(progs[th], th, mem, mode)
			}
			if got := traceDigest(traces); got != want {
				t.Errorf("machine-op trace digest %s, golden %s", got, want)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// traceDigest hashes every thread's trace in thread order.
func traceDigest(threads [][]mop) string {
	h := sha256.New()
	for th, tr := range threads {
		fmt.Fprintf(h, "thread %d ops %d\n", th, len(tr))
		for _, m := range tr {
			fmt.Fprintf(h, "%s %#x %d %d %d\n", m.kind, m.addr, m.size, m.val, m.old)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// persistMode selects how PersistBarrier/Flush/Fence expand, mirroring
// env.persistBarrier: battery-backed schemes drop them, epoch persistency
// turns barriers and fences into epoch boundaries, and explicit persistency
// issues a flush per address followed by a fence.
type persistMode struct{ epoch, explicit bool }

// mop is one recorded machine operation; comparable, so traces can be
// diffed with a plain != loop.
type mop struct {
	kind string
	addr memory.Addr
	size int
	val  uint64 // store/CAS-new value, load result, compute cycles
	old  uint64 // CAS expected
}

// funcMem gives the recorder flat functional memory semantics: little-endian
// reads and writes straight into a memory.Memory, no timing.
type funcMem struct{ m *memory.Memory }

func (f funcMem) load(a memory.Addr, size int) uint64 {
	var b [8]byte
	copy(b[:size], f.m.Peek(a, size))
	return binary.LittleEndian.Uint64(b[:])
}

func (f funcMem) store(a memory.Addr, size int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.m.Poke(a, b[:size])
}

// recEnv is the cpu.Env recorder: it executes a program body inline (the
// program never blocks because every operation completes immediately) and
// expands PersistBarrier/Flush/Fence with exactly env.persistBarrier's mode
// logic.
type recEnv struct {
	funcMem
	id    int
	mode  persistMode
	trace []mop
}

func (e *recEnv) CoreID() int { return e.id }

func (e *recEnv) Load(addr memory.Addr, size int) uint64 {
	v := e.load(addr, size)
	e.trace = append(e.trace, mop{kind: "load", addr: addr, size: size, val: v})
	return v
}

func (e *recEnv) Store(addr memory.Addr, size int, val uint64) {
	e.store(addr, size, val)
	e.trace = append(e.trace, mop{kind: "store", addr: addr, size: size, val: val})
}

func (e *recEnv) PersistBarrier(addrs ...memory.Addr) {
	if e.mode.epoch {
		e.trace = append(e.trace, mop{kind: "epoch"})
		return
	}
	if !e.mode.explicit {
		return
	}
	for _, a := range addrs {
		e.trace = append(e.trace, mop{kind: "flush", addr: a})
	}
	e.trace = append(e.trace, mop{kind: "fence"})
}

func (e *recEnv) Flush(addr memory.Addr) {
	if e.mode.explicit {
		e.trace = append(e.trace, mop{kind: "flush", addr: addr})
	}
}

func (e *recEnv) Fence() {
	if e.mode.epoch {
		e.trace = append(e.trace, mop{kind: "epoch"})
		return
	}
	if e.mode.explicit {
		e.trace = append(e.trace, mop{kind: "fence"})
	}
}

// Now returns a pseudo-clock (the trace length): the recorder has no real
// timeline, it only needs a deterministic monotonic value.
func (e *recEnv) Now() engine.Cycle { return engine.Cycle(len(e.trace)) }

func (e *recEnv) Compute(n engine.Cycle) {
	if n == 0 {
		return
	}
	e.trace = append(e.trace, mop{kind: "compute", val: uint64(n)})
}

func (e *recEnv) CompareAndSwap(addr memory.Addr, size int, old, new uint64) (uint64, bool) {
	prev := e.load(addr, size)
	if prev == old {
		e.store(addr, size, new)
	}
	e.trace = append(e.trace, mop{kind: "cas", addr: addr, size: size, val: new, old: old})
	return prev, prev == old
}

func runEnvTwin(prog func(cpu.Env), thread int, mem *memory.Memory, mode persistMode) []mop {
	e := &recEnv{funcMem: funcMem{mem}, id: thread, mode: mode}
	prog(e)
	return e.trace
}
