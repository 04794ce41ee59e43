package workload

// Negative tests: each recovery checker must actually detect a corrupted
// image — a checker that can never fail would make every crash campaign
// vacuously green.

import (
	"fmt"
	"strings"
	"testing"

	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/persistency"
)

// buildImage runs the workload to completion under BBB and flushes
// everything durable, returning the machine for image mutation.
func buildImage(t *testing.T, w Workload, p Params) *memory.Memory {
	t.Helper()
	sys, progs := Build(w, persistency.BBB, testConfig(), p)
	defer sys.Shutdown()
	sys.Run(progs)
	sys.Model.CrashDrain(sys.Cores, sys.Hier, sys.NVMM, sys.Mem)
	if err := w.Check(sys.Mem); err != nil {
		t.Fatalf("clean image fails check: %v", err)
	}
	return sys.Mem
}

// corrupt64 overwrites a little-endian word in the image.
func corrupt64(mem *memory.Memory, a memory.Addr, v uint64) {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * uint(i)))
	}
	mem.Poke(a, b)
}

func TestLinkedListCheckerDetectsDanglingHead(t *testing.T) {
	w := NewLinkedList()
	p := testParams(50)
	mem := buildImage(t, w, p)
	// Point a head into the heads line itself, where no node lives (the
	// word there is zero, so the walk finds a zero magic).
	corrupt64(mem, w.head(1), uint64(w.head(1))+16)
	err := w.Check(mem)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("dangling head not detected: %v", err)
	}
}

func TestLinkedListCheckerDetectsBrokenChainValues(t *testing.T) {
	w := NewLinkedList()
	p := testParams(50)
	mem := buildImage(t, w, p)
	head := mem.Peek64(w.head(0))
	corrupt64(mem, memory.Addr(head)+offListVal, 9999)
	if err := w.Check(mem); err == nil {
		t.Fatal("non-consecutive chain values not detected")
	}
}

func TestHashmapCheckerDetectsWrongBucket(t *testing.T) {
	w := NewHashmap()
	p := testParams(60)
	mem := buildImage(t, w, p)
	// Find a non-empty bucket and corrupt its node's key so it no longer
	// hashes there.
	for b := 0; b < w.buckets; b++ {
		ptr := mem.Peek64(w.bucketAddr(0, uint64(b)))
		if ptr == 0 {
			continue
		}
		corrupt64(mem, memory.Addr(ptr)+offHashKey, mem.Peek64(memory.Addr(ptr)+offHashKey)+1)
		err := w.Check(mem)
		if err == nil || !strings.Contains(err.Error(), "hashes to bucket") {
			t.Fatalf("wrong-bucket key not detected: %v", err)
		}
		return
	}
	t.Fatal("no populated bucket found")
}

func TestHashmapCheckerDetectsUnpersistedNode(t *testing.T) {
	w := NewHashmap()
	p := testParams(60)
	mem := buildImage(t, w, p)
	for b := 0; b < w.buckets; b++ {
		ptr := mem.Peek64(w.bucketAddr(0, uint64(b)))
		if ptr == 0 {
			continue
		}
		corrupt64(mem, memory.Addr(ptr)+offHashMagic, 0) // zero magic = never written
		if err := w.Check(mem); err == nil {
			t.Fatal("zeroed node magic not detected")
		}
		return
	}
	t.Fatal("no populated bucket found")
}

func TestCTreeCheckerDetectsPathViolation(t *testing.T) {
	w := NewCTree()
	p := testParams(60)
	mem := buildImage(t, w, p)
	root := memory.Addr(mem.Peek64(w.root(0)))
	if mem.Peek64(root+offIntMagic) != magicInternal {
		t.Skip("tree too small to have an internal root")
	}
	bit := mem.Peek64(root + offIntBit)
	left := memory.Addr(mem.Peek64(root + offIntLeft))
	// Force the left subtree's leaf (or first leaf found) to violate the
	// branch bit.
	n := left
	for mem.Peek64(n+offIntMagic) == magicInternal {
		n = memory.Addr(mem.Peek64(n + offIntLeft))
	}
	key := mem.Peek64(n + offLeafKey)
	corrupt64(mem, n+offLeafKey, key|1<<bit) // set the bit the left path forbids
	err := w.Check(mem)
	if err == nil || !strings.Contains(err.Error(), "path bits") {
		t.Fatalf("path-bit violation not detected: %v", err)
	}
}

func TestCTreeCheckerDetectsNilChild(t *testing.T) {
	w := NewCTree()
	p := testParams(60)
	mem := buildImage(t, w, p)
	root := memory.Addr(mem.Peek64(w.root(0)))
	if mem.Peek64(root+offIntMagic) != magicInternal {
		t.Skip("tree too small")
	}
	corrupt64(mem, root+offIntRight, 0)
	if err := w.Check(mem); err == nil {
		t.Fatal("nil child not detected")
	}
}

func TestRTreeCheckerDetectsEscapedBounds(t *testing.T) {
	w := NewRTree()
	p := testParams(80)
	mem := buildImage(t, w, p)
	root := memory.Addr(mem.Peek64(w.root(0)))
	if mem.Peek64(root+offRLeaf) == 1 {
		t.Skip("tree too small to have children")
	}
	child := memory.Addr(mem.Peek64(root + offREntry))
	// Widen the child beyond the parent: containment violated.
	corrupt64(mem, child+offRHi, mem.Peek64(root+offRHi)+1000)
	err := w.Check(mem)
	if err == nil || !strings.Contains(err.Error(), "escapes parent") {
		t.Fatalf("containment violation not detected: %v", err)
	}
}

func TestRTreeCheckerDetectsBadCount(t *testing.T) {
	w := NewRTree()
	p := testParams(80)
	mem := buildImage(t, w, p)
	root := memory.Addr(mem.Peek64(w.root(0)))
	corrupt64(mem, root+offRCount, rFanout+5)
	if err := w.Check(mem); err == nil {
		t.Fatal("out-of-range count not detected")
	}
}

func TestArrayCheckerDetectsTornValue(t *testing.T) {
	a := NewArray(OpMutate, false)
	p := testParams(50)
	mem := buildImage(t, a, p)
	corrupt64(mem, a.elem(3), 0xDEAD) // untagged
	err := a.Check(mem)
	if want := "array mutateNC: element 3 holds untagged value 0xdead (torn persist)"; err == nil || err.Error() != want {
		t.Fatalf("torn value: got %v, want %q", err, want)
	}
}

func TestArrayCheckerDetectsForeignWriter(t *testing.T) {
	a := NewArray(OpMutate, false)
	p := testParams(50)
	mem := buildImage(t, a, p)
	// Element 0 belongs to thread 0's partition; tag it as thread 3's.
	corrupt64(mem, a.elem(0), encode(3, 1))
	err := a.Check(mem)
	if want := "array mutateNC: element 0 written by thread 3 outside its partition"; err == nil || err.Error() != want {
		t.Fatalf("foreign writer: got %v, want %q", err, want)
	}
	// The last partition's first element, tagged as thread 0's.
	corrupt64(mem, a.elem(0), initialVal(0))
	i := (a.threads - 1) * (a.elems / a.threads)
	corrupt64(mem, a.elem(i), encode(0, 1))
	err = a.Check(mem)
	if want := fmt.Sprintf("array mutateNC: element %d written by thread 0 outside its partition", i); err == nil || err.Error() != want {
		t.Fatalf("foreign writer in the last partition: got %v, want %q", err, want)
	}
}

// Setup on a fresh arena must isolate runs: two sequential Builds of the
// same workload value must not alias state.
func TestSetupIsolatesRuns(t *testing.T) {
	w := NewHashmap()
	p := testParams(30)
	for i := 0; i < 2; i++ {
		sys, progs := Build(w, persistency.BBB, testConfig(), p)
		sys.Run(progs)
		sys.Model.CrashDrain(sys.Cores, sys.Hier, sys.NVMM, sys.Mem)
		if err := w.Check(sys.Mem); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		sys.Shutdown()
	}
}

var _ = palloc.FromLayout // keep the import for helper extensions

// TestLinkedListCheckAllocs pins the checker's cost on the crash-image
// model checker's hot path, where most PMEM images without barriers fail:
// a valid image allocates nothing and a violating one only its error.
func TestLinkedListCheckAllocs(t *testing.T) {
	w := NewLinkedList()
	mem := buildImage(t, w, testParams(50))
	var err error
	if avg := testing.AllocsPerRun(100, func() { err = w.Check(mem) }); avg != 0 || err != nil {
		t.Fatalf("valid image: %.1f allocs per Check (want 0), err %v", avg, err)
	}
	corrupt64(mem, w.head(1), uint64(w.head(1))+16)
	if avg := testing.AllocsPerRun(100, func() { err = w.Check(mem) }); avg > 1 || err == nil {
		t.Fatalf("violating image: %.1f allocs per Check (want at most 1), err %v", avg, err)
	}
}

// TestLinkedListErrorText pins each complaint's text to the fmt.Errorf
// form witnesses and golden reports embed.
func TestLinkedListErrorText(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{&listError{listBadMagic, 1, 0x1040, 0}, fmt.Sprintf("linkedlist[%d]: reachable node %#x has magic %#x (dangling publish — the Figure 2 bug)", 1, uint64(0x1040), uint64(0))},
		{&listError{listZeroValue, 0, 0x2000, 0}, fmt.Sprintf("linkedlist[%d]: node %#x has zero value", 0, uint64(0x2000))},
		{&listError{listGap, 3, 7, 5}, fmt.Sprintf("linkedlist[%d]: chain values %d -> %d not consecutive", 3, uint64(7), uint64(5))},
		{&listError{listCycle, 2, 0, 0}, fmt.Sprintf("linkedlist[%d]: cycle detected", 2)},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}
