package memory

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestLayoutRegions(t *testing.T) {
	l := DefaultLayout()
	if got := l.RegionOf(0); got != RegionDRAM {
		t.Fatalf("RegionOf(0) = %v", got)
	}
	if got := l.RegionOf(l.NVMMBase); got != RegionNVMM {
		t.Fatalf("RegionOf(NVMMBase) = %v", got)
	}
	if got := l.RegionOf(l.NVMMBase + l.NVMMSize - 1); got != RegionNVMM {
		t.Fatalf("RegionOf(last NVMM byte) = %v", got)
	}
	if !l.Persistent(l.PersistentBase) {
		t.Fatal("PersistentBase should be persistent")
	}
	if l.Persistent(l.DRAMBase) {
		t.Fatal("DRAM should not be persistent")
	}
}

func TestRegionOfOutsidePanics(t *testing.T) {
	l := DefaultLayout()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range address did not panic")
		}
	}()
	l.RegionOf(l.NVMMBase + l.NVMMSize)
}

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x12345) != 0x12340 {
		t.Fatalf("LineAddr = %#x", LineAddr(0x12345))
	}
	if LineOffset(0x12345) != 5 {
		t.Fatalf("LineOffset = %d", LineOffset(0x12345))
	}
}

func TestReadWriteLine(t *testing.T) {
	m := New(DefaultLayout())
	var src, dst [LineSize]byte
	for i := range src {
		src[i] = byte(i)
	}
	a := m.Layout().NVMMBase + 128
	m.WriteLine(a, &src)
	m.ReadLine(a, &dst)
	if src != dst {
		t.Fatal("line round-trip mismatch")
	}
	if m.Writes[RegionNVMM] != 1 || m.Reads[RegionNVMM] != 1 {
		t.Fatalf("accounting = writes %d reads %d", m.Writes[RegionNVMM], m.Reads[RegionNVMM])
	}
	if m.Writes[RegionDRAM] != 0 {
		t.Fatal("DRAM accounting touched by NVMM access")
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New(DefaultLayout())
	var l [LineSize]byte
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WriteLine did not panic")
		}
	}()
	m.WriteLine(3, &l)
}

func TestUntouchedReadsZero(t *testing.T) {
	m := New(DefaultLayout())
	var dst [LineSize]byte
	dst[0] = 0xFF
	m.PeekLine(64, &dst)
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if m.TouchedPages() != 0 {
		t.Fatal("peek should not materialize pages")
	}
}

func TestPokePeekCrossPage(t *testing.T) {
	m := New(DefaultLayout())
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := Addr(PageSize - 100)
	m.Poke(base, data)
	got := m.Peek(base, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page Poke/Peek mismatch")
	}
	if m.TouchedPages() != 4 {
		t.Fatalf("TouchedPages = %d, want 4", m.TouchedPages())
	}
}

func TestPeek64CrossPage(t *testing.T) {
	m := New(DefaultLayout())
	for _, a := range []Addr{PageSize - 3, 2*PageSize - 8, 3*PageSize - 1} {
		m.Poke64(a, 0x0123456789abcdef)
		if got := m.Peek64(a); got != 0x0123456789abcdef {
			t.Fatalf("Peek64(%#x) = %#x after Poke64", a, got)
		}
		if got, want := m.Peek64(a), binary.LittleEndian.Uint64(m.Peek(a, 8)); got != want {
			t.Fatalf("Peek64(%#x) = %#x, Peek says %#x", a, got, want)
		}
	}
	// Half of a page-crossing read lands on a page that was never written.
	m2 := New(DefaultLayout())
	m2.Poke(PageSize-4, []byte{1, 2, 3, 4})
	if got := m2.Peek64(PageSize - 4); got != 0x04030201 {
		t.Fatalf("Peek64 across an absent page = %#x, want 0x04030201", got)
	}
}

func TestPeek64AbsentPage(t *testing.T) {
	m := New(DefaultLayout())
	if got := m.Peek64(5 * PageSize); got != 0 {
		t.Fatalf("Peek64 of an unmaterialized page = %#x, want 0", got)
	}
	if m.TouchedPages() != 0 {
		t.Fatal("Peek64 should not materialize pages")
	}
}

func TestPeek64FastPathAllocs(t *testing.T) {
	m := New(DefaultLayout())
	m.Poke64(128, 42)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		sink += m.Peek64(128) + m.Peek64(7*PageSize)
	})
	if allocs != 0 {
		t.Fatalf("Peek64 allocates %v times per call pair, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("unreachable: reads returned nothing")
	}
}

// TestPeek64MemoEdges requires Peek64 to read what Peek reads around the
// memo's bounds: at the first and last offsets of a page a word fits in
// and just past them (reads crossing into the next page), on materialized
// and unmaterialized pages, with the memo on the read's page and off it;
// at DRAM address 0 of a fresh memory, whose memo holds no page; and after
// CloneInto drops the page a reused copy's memo pointed at.
func TestPeek64MemoEdges(t *testing.T) {
	check := func(m *Memory, a Addr) {
		t.Helper()
		if got, want := m.Peek64(a), binary.LittleEndian.Uint64(m.Peek(a, 8)); got != want {
			t.Fatalf("Peek64(%#x) = %#x, Peek says %#x", a, got, want)
		}
	}
	if got := New(DefaultLayout()).Peek64(0); got != 0 {
		t.Fatalf("Peek64(0) of a fresh memory = %#x, want 0", got)
	}

	m := New(DefaultLayout())
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + 1)
		}
		return b
	}
	// Pages 1-2 and 5 and 9 are materialized; 3, 6 and 8 are not, so page
	// 5's last words cross into an absent page and page 8's into a present
	// one.
	m.Poke(1*PageSize, pattern(2*PageSize))
	m.Poke(5*PageSize, pattern(PageSize))
	m.Poke(9*PageSize, pattern(PageSize))
	for _, page := range []Addr{1, 2, 3, 5, 8} {
		for _, off := range []Addr{0, 4087, 4088, 4089, 4095} {
			a := page*PageSize + off
			m.Peek64(12 * PageSize) // the memo off a's page
			check(m, a)
			m.Peek64(page * PageSize) // and on it, if it is materialized
			check(m, a)
		}
	}

	// A reused copy whose memo points at a page its source lacks.
	dst := m.Clone()
	dst.Poke64(20*PageSize, 7)
	if got := dst.Peek64(20 * PageSize); got != 7 {
		t.Fatalf("Peek64 = %d, want 7", got)
	}
	m.CloneInto(dst)
	check(dst, 20*PageSize)
	if got := dst.Peek64(20 * PageSize); got != 0 {
		t.Fatalf("Peek64 of a page CloneInto dropped = %d, want 0", got)
	}
	check(dst, 5*PageSize+8)
}

// TestWatchReportsReads requires every read that touches a watched line —
// Peek64 (repeated, so the page would sit in the memo were it not
// watched, and crossing a line or a page boundary), Peek over several
// lines, PeekLine and ReadLine — to report each watched line it touches,
// by its index in Watch's list, once per read; reads of unwatched lines,
// on a watched page or not, to report nothing; every read to return what
// it returns unwatched; and Watch(nil, nil) and CloneInto to end the
// watch.
func TestWatchReportsReads(t *testing.T) {
	base := DefaultLayout().NVMMBase
	lines := []Addr{base + 64, base + 192, base + PageSize - 64, base + PageSize, base + 5*PageSize}
	m := New(DefaultLayout())
	for a := base; a < base+6*PageSize; a += 8 {
		m.Poke64(a, a*3+1)
	}
	plain := m.Clone()
	var got []int
	m.Watch(lines, func(i int) { got = append(got, i) })
	var line [LineSize]byte
	for _, c := range []struct {
		name string
		read func(m *Memory) []byte
		want []int
	}{
		{"Peek64 of a watched line", func(m *Memory) []byte { return le(m.Peek64(base + 64 + 8)) }, []int{0}},
		{"Peek64 of it again", func(m *Memory) []byte { return le(m.Peek64(base + 64 + 16)) }, []int{0}},
		{"Peek64 of an unwatched line on its page", func(m *Memory) []byte { return le(m.Peek64(base + 128)) }, nil},
		{"Peek64 of an unwatched page", func(m *Memory) []byte { return le(m.Peek64(base + 2*PageSize)) }, nil},
		{"Peek64 across two lines", func(m *Memory) []byte { return le(m.Peek64(base + 188)) }, []int{1}},
		{"Peek64 across a page boundary", func(m *Memory) []byte { return le(m.Peek64(base + PageSize - 4)) }, []int{2, 3}},
		{"Peek over four lines", func(m *Memory) []byte { return m.Peek(base+60, 200) }, []int{0, 1}},
		{"PeekLine", func(m *Memory) []byte { m.PeekLine(base+5*PageSize, &line); return line[:] }, []int{4}},
		{"ReadLine", func(m *Memory) []byte { m.ReadLine(base+PageSize, &line); return line[:] }, []int{3}},
		{"PeekLine of an unwatched line", func(m *Memory) []byte { m.PeekLine(base+5*PageSize+64, &line); return line[:] }, nil},
	} {
		got = got[:0]
		b := c.read(m)
		if want := c.read(plain); !bytes.Equal(b, want) {
			t.Errorf("%s: read %x, unwatched %x", c.name, b, want)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: reported %v, want %v", c.name, got, c.want)
		}
	}
	for _, end := range []func(){func() { m.Watch(nil, nil) }, func() { plain.CloneInto(m) }} {
		m.Watch(lines, func(i int) { got = append(got, i) })
		end()
		got = got[:0]
		m.Peek64(base + 64)
		m.PeekLine(base+PageSize, &line)
		if len(got) != 0 {
			t.Errorf("reads after the watch ended reported %v", got)
		}
	}
}

func le(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestLineAliasesMemory requires Line to return the line's bytes in place —
// what PeekLine reads, and what a write through it changes — materializing
// an absent page, and to panic on an unaligned address.
func TestLineAliasesMemory(t *testing.T) {
	m := New(DefaultLayout())
	a := m.Layout().NVMMBase + 3*PageSize + 128
	m.Poke64(a+8, 0x1122334455667788)
	var got [LineSize]byte
	l := m.Line(a)
	m.PeekLine(a, &got)
	if *l != got {
		t.Fatal("Line's bytes differ from PeekLine's")
	}
	l[0] = 0xAB
	m.PeekLine(a, &got)
	if got[0] != 0xAB || m.Peek64(a+8) != 0x1122334455667788 {
		t.Fatal("a write through Line is not what PeekLine reads")
	}
	absent := m.Layout().NVMMBase + 9*PageSize
	m.Line(absent)[63] = 5
	if m.Peek(absent+63, 1)[0] != 5 || m.TouchedPages() != 2 {
		t.Fatalf("Line on an absent page: byte %d, %d pages", m.Peek(absent+63, 1)[0], m.TouchedPages())
	}
	if m.Writes != ([2]uint64{}) {
		t.Fatalf("Line bumped write accounting: %v", m.Writes)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Line did not panic")
		}
	}()
	m.Line(a + 8)
}

func TestCloneIntoReusesAndMatchesClone(t *testing.T) {
	src := New(DefaultLayout())
	src.Poke64(0, 1)
	src.Poke64(3*PageSize+8, 2)
	var line [LineSize]byte
	line[0] = 9
	src.WriteLine(64, &line)

	// A stale copy: an older image of src plus a page src never had.
	dst := src.Clone()
	src.Poke64(3*PageSize+8, 3)
	dst.Poke64(7*PageSize, 4)
	dst.WriteLine(128, &line)
	page0 := *dst.index.Lookup(0)

	if got := src.CloneInto(dst); got != dst {
		t.Fatal("CloneInto did not reuse dst")
	}
	if *dst.index.Lookup(0) != page0 {
		t.Fatal("CloneInto reallocated a page dst already had")
	}
	want := src.Clone()
	if !reflect.DeepEqual(dst.PageBases(), want.PageBases()) {
		t.Fatalf("pages %v, want %v", dst.PageBases(), want.PageBases())
	}
	if dst.TouchedPages() != want.TouchedPages() {
		t.Fatalf("TouchedPages = %d, want %d", dst.TouchedPages(), want.TouchedPages())
	}
	for _, base := range want.PageBases() {
		if !bytes.Equal(dst.Peek(base, PageSize), want.Peek(base, PageSize)) {
			t.Fatalf("page %#x differs from a fresh Clone", base)
		}
	}
	if dst.Writes != ([2]uint64{}) || dst.Reads != ([2]uint64{}) {
		t.Fatalf("accounting not reset: writes %v reads %v", dst.Writes, dst.Reads)
	}
}

// Property: any sequence of line writes is readable back, last-write-wins.
func TestPropertyLastWriteWins(t *testing.T) {
	l := DefaultLayout()
	f := func(lines []uint16, vals []byte) bool {
		m := New(l)
		last := map[Addr]byte{}
		for i, ln := range lines {
			a := l.NVMMBase + Addr(ln)*LineSize
			var buf [LineSize]byte
			v := byte(i)
			if i < len(vals) {
				v = vals[i]
			}
			for j := range buf {
				buf[j] = v
			}
			m.WriteLine(a, &buf)
			last[a] = v
		}
		for a, v := range last {
			var buf [LineSize]byte
			m.PeekLine(a, &buf)
			for _, b := range buf {
				if b != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPeek64 measures a recovery checker's word reads, two per op:
// "hit" reads twice within the memoized page (the inlined fast path),
// "switch" alternates between two pages, so every read goes through
// peek64Slow's page lookup.
func BenchmarkPeek64(b *testing.B) {
	m := New(DefaultLayout())
	base := m.Layout().NVMMBase
	m.Poke64(base, 1)
	m.Poke64(base+PageSize, 2)
	for _, bc := range []struct {
		name  string
		other Addr // the second read's address
	}{{"hit", base + 64}, {"switch", base + PageSize}} {
		b.Run(bc.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += m.Peek64(base) + m.Peek64(bc.other)
			}
			if sink == 0 {
				b.Fatal("reads returned nothing")
			}
		})
	}
}
