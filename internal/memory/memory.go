// Package memory models the flat physical address space of the simulated
// machine: a DRAM region and an NVMM region, with a sparse page-granular
// backing store so multi-gigabyte address spaces cost only what is touched.
//
// The NVMM region doubles as the durable image used by crash-recovery
// checks: whatever bytes are in the NVMM image at (or drained to it after) a
// crash is exactly what post-crash recovery code would observe.
package memory

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Addr is a physical byte address.
type Addr = uint64

const (
	// PageSize is the backing-store granularity.
	PageSize = 4096
	// LineSize is the cache-line size used throughout the simulator (64 B,
	// per Table III of the paper).
	LineSize = 64
)

// LineAddr returns the line-aligned address containing a.
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

// LineOffset returns a's offset within its cache line.
func LineOffset(a Addr) int { return int(a & (LineSize - 1)) }

// Region identifies which physical memory an address maps to.
type Region int

const (
	// RegionDRAM is volatile main memory.
	RegionDRAM Region = iota
	// RegionNVMM is non-volatile main memory.
	RegionNVMM
)

func (r Region) String() string {
	switch r {
	case RegionDRAM:
		return "DRAM"
	case RegionNVMM:
		return "NVMM"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Layout describes the physical address map. The paper's machine has 8 GiB
// of DRAM and 8 GiB of NVMM behind separate controllers; a portion of the
// NVMM range holds persistent data (allocated with palloc).
type Layout struct {
	DRAMBase Addr
	DRAMSize uint64
	NVMMBase Addr
	NVMMSize uint64
	// PersistentBase..PersistentBase+PersistentSize is the persistent heap
	// inside the NVMM range. Stores to it are "persisting stores".
	PersistentBase Addr
	PersistentSize uint64
}

// DefaultLayout mirrors Table III: 8 GiB DRAM at 0, 8 GiB NVMM above it,
// with the entire NVMM range available as persistent heap.
func DefaultLayout() Layout {
	const gib = 1 << 30
	return Layout{
		DRAMBase:       0,
		DRAMSize:       8 * gib,
		NVMMBase:       8 * gib,
		NVMMSize:       8 * gib,
		PersistentBase: 8 * gib,
		PersistentSize: 8 * gib,
	}
}

// RegionOf reports which memory a falls into. Addresses outside both ranges
// panic: the simulator never fabricates them.
func (l Layout) RegionOf(a Addr) Region {
	switch {
	case a >= l.DRAMBase && a < l.DRAMBase+l.DRAMSize:
		return RegionDRAM
	case a >= l.NVMMBase && a < l.NVMMBase+l.NVMMSize:
		return RegionNVMM
	default:
		panic(fmt.Sprintf("memory: address %#x outside DRAM and NVMM ranges", a))
	}
}

// Persistent reports whether a lies in the persistent heap, i.e. whether a
// store to it is a persisting store.
func (l Layout) Persistent(a Addr) bool {
	return a >= l.PersistentBase && a < l.PersistentBase+l.PersistentSize
}

// Memory is the functional backing store for the whole physical address
// space. It is shared by the DRAM and NVMM controllers; Region bookkeeping
// is purely in Layout.
type Memory struct {
	layout Layout
	// index finds every materialized page by page number, without hashing,
	// and walks them in address order; pages counts them.
	index PageTable[*[PageSize]byte]
	pages int
	wear  map[Addr]uint64 // per-line NVMM write counts (optional)

	// Last-page memo: accesses cluster heavily within a page (sequential
	// setup pokes, line reads, recovery checkers' word reads). Pages are
	// removed only by CloneInto, which resets the memo. lastBase is noPage
	// whenever lastPage is nil. A watched page never enters it, so every
	// read of one misses the memo and is reported.
	lastBase Addr
	lastPage *[PageSize]byte

	// watched are the pages of the lines Watch reports reads of, and
	// onRead the report.
	watched []watchedPage
	onRead  func(i int)

	// Writes counts line-sized writes per region (for endurance accounting).
	Writes [2]uint64
	// Reads counts line-sized reads per region.
	Reads [2]uint64
}

// watchedPage is one page holding watched lines.
type watchedPage struct {
	base  Addr
	page  *[PageSize]byte
	lines uint64 // bit k: the page's line k is watched
	first int    // Watch's index of the page's lowest watched line
}

// noPage is the memo's base while it holds no page. It is not page-aligned,
// so page never matches it, and Peek64's fast path matches it only for the
// top page of the address space, which lies outside every layout.
const noPage = ^Addr(0)

// New returns an empty memory with the given layout.
func New(l Layout) *Memory {
	return &Memory{layout: l, index: NewPageTable[*[PageSize]byte](l.NVMMBase), lastBase: noPage}
}

// Layout returns the address map.
func (m *Memory) Layout() Layout { return m.layout }

// page returns a's page for a write, materializing it.
func (m *Memory) page(a Addr) *[PageSize]byte {
	if a&^(PageSize-1) == m.lastBase {
		return m.lastPage
	}
	return m.lookupPage(a, true)
}

// lookupPage finds (or, with create, materializes) a's page past the memo,
// and memoizes it unless it is watched. It is kept out of line so page and
// readPage inline.
func (m *Memory) lookupPage(a Addr, create bool) *[PageSize]byte {
	base := a &^ (PageSize - 1)
	var p *[PageSize]byte
	if create {
		slot := m.index.Slot(base)
		if *slot == nil {
			*slot = new([PageSize]byte)
			m.pages++
		}
		p = *slot
	} else if slot := m.index.Lookup(base); slot != nil {
		p = *slot
	}
	if p != nil && m.watchedAt(base) == nil {
		m.lastBase, m.lastPage = base, p
	}
	return p
}

// watchedAt returns the watched page at base, or nil.
func (m *Memory) watchedAt(base Addr) *watchedPage {
	for k := range m.watched {
		if m.watched[k].base == base {
			return &m.watched[k]
		}
	}
	return nil
}

// Watch reports every later read of the given lines: each Peek64, Peek,
// PeekLine or ReadLine that touches lines[i] calls onRead(i), once per
// line the read touches. lines must be line-aligned and ascending; their
// pages are materialized. Reads of other lines cost what they did, as a
// watched page never enters the last-page memo, so only a memo miss looks
// for one. Watch replaces any earlier watch, and Watch(nil, nil) ends it;
// CloneInto into m ends it too.
func (m *Memory) Watch(lines []Addr, onRead func(i int)) {
	m.watched, m.onRead = m.watched[:0], onRead
	for i, a := range lines {
		m.mustAligned(a)
		base := a &^ (PageSize - 1)
		if n := len(m.watched); n == 0 || m.watched[n-1].base != base {
			m.watched = append(m.watched, watchedPage{base: base, page: m.lookupPage(a, true), first: i})
		}
		m.watched[len(m.watched)-1].lines |= 1 << (a & (PageSize - 1) / LineSize)
	}
	m.lastBase, m.lastPage = noPage, nil
}

// readPage returns a's page for a read of n bytes at a within the page,
// or nil when the page is not materialized, and reports the watched lines
// the read touches.
func (m *Memory) readPage(a Addr, n int) *[PageSize]byte {
	if a&^(PageSize-1) == m.lastBase {
		return m.lastPage
	}
	return m.readMiss(a, n)
}

// readMiss is readPage past the memo, kept out of line so readPage
// inlines.
func (m *Memory) readMiss(a Addr, n int) *[PageSize]byte {
	w := m.watchedAt(a &^ (PageSize - 1))
	if w == nil {
		return m.lookupPage(a, false)
	}
	off := a & (PageSize - 1)
	lo, hi := off/LineSize, (off+Addr(n)-1)/LineSize // hi+1 may be 64: the shift then gives 0
	for touched := w.lines &^ (1<<lo - 1) & (1<<(hi+1) - 1); touched != 0; touched &= touched - 1 {
		l := bits.TrailingZeros64(touched)
		m.onRead(w.first + bits.OnesCount64(w.lines&(1<<l-1)))
	}
	return w.page
}

// ReadLine copies the 64-byte line containing a into dst and bumps read
// accounting. a must be line-aligned.
func (m *Memory) ReadLine(a Addr, dst *[LineSize]byte) {
	m.mustAligned(a)
	m.Reads[m.layout.RegionOf(a)]++
	m.peekLine(a, dst)
}

// WriteLine stores the 64-byte line at a and bumps write accounting. a must
// be line-aligned.
func (m *Memory) WriteLine(a Addr, src *[LineSize]byte) {
	m.mustAligned(a)
	m.Writes[m.layout.RegionOf(a)]++
	m.recordWear(a)
	p := m.page(a)
	copy(p[a&(PageSize-1):], src[:])
}

// Line returns the 64-byte line at a in place, materializing its page, so a
// caller can read and write it without accounting or a page lookup per
// access. a must be line-aligned. The pointer stays valid until a CloneInto
// into m drops the page.
func (m *Memory) Line(a Addr) *[LineSize]byte {
	m.mustAligned(a)
	p := m.page(a)
	return (*[LineSize]byte)(p[a&(PageSize-1):])
}

// PeekLine reads line bytes without touching accounting (used by recovery
// checks and tests).
func (m *Memory) PeekLine(a Addr, dst *[LineSize]byte) {
	m.mustAligned(a)
	m.peekLine(a, dst)
}

func (m *Memory) peekLine(a Addr, dst *[LineSize]byte) {
	p := m.readPage(a, LineSize)
	if p == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst[:], p[a&(PageSize-1):])
}

// Peek reads n bytes starting at a without accounting; it may cross lines
// and pages.
func (m *Memory) Peek(a Addr, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		off := int((a + Addr(i)) & (PageSize - 1))
		chunk := PageSize - off
		if chunk > n-i {
			chunk = n - i
		}
		if p := m.readPage(a+Addr(i), chunk); p != nil {
			copy(out[i:i+chunk], p[off:off+chunk])
		}
		i += chunk
	}
	return out
}

// Peek64 reads a little-endian uint64 at a without accounting or
// allocation, mirroring Poke64: an unmaterialized page reads as zero. A read
// within the memoized page is inlined into the caller (make inline-check
// guards that); every other read goes through peek64Slow.
func (m *Memory) Peek64(a Addr) uint64 {
	if off := a ^ m.lastBase; off <= PageSize-8 {
		return binary.LittleEndian.Uint64(m.lastPage[off:])
	}
	return m.peek64Slow(a)
}

// peek64Slow is Peek64 past the memo: another page, an unmaterialized or a
// watched one, or a read crossing a page boundary (which falls back to
// Peek).
func (m *Memory) peek64Slow(a Addr) uint64 {
	off := a & (PageSize - 1)
	if off+8 > PageSize {
		return binary.LittleEndian.Uint64(m.Peek(a, 8))
	}
	p := m.readPage(a, 8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p[off:])
}

// Poke writes raw bytes without accounting (test/initialization helper).
func (m *Memory) Poke(a Addr, b []byte) {
	for i := 0; i < len(b); {
		p := m.page(a + Addr(i))
		off := int((a + Addr(i)) & (PageSize - 1))
		chunk := PageSize - off
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		copy(p[off:off+chunk], b[i:i+chunk])
		i += chunk
	}
}

// Poke64 writes a little-endian uint64 at a without accounting — the
// word-sized fast path workload setup loops lean on.
func (m *Memory) Poke64(a Addr, v uint64) {
	off := a & (PageSize - 1)
	if off+8 <= PageSize {
		p := m.page(a)
		binary.LittleEndian.PutUint64(p[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Poke(a, b[:])
}

// TouchedPages reports how many distinct pages have been materialized.
func (m *Memory) TouchedPages() int { return m.pages }

// Clone returns a deep copy of the memory contents with fresh accounting
// (Writes/Reads/wear start at zero). The crash-image model checker clones
// the post-drain image once per crash point and mutates the copy.
func (m *Memory) Clone() *Memory { return m.CloneInto(nil) }

// CloneInto is Clone reusing dst: dst's pages are overwritten with m's
// contents, pages m does not have are dropped, and its accounting restarts
// at zero. A nil dst gets a fresh copy. It returns the copy. Machines that
// take a crash image at every crash point of a walk copy into the same
// image each time instead of allocating one per point.
func (m *Memory) CloneInto(dst *Memory) *Memory {
	if dst == nil {
		dst = New(m.layout)
	} else {
		for base, p := range dst.index.All() {
			if *p == nil {
				continue
			}
			if q := m.index.Lookup(base); q == nil || *q == nil {
				*p = nil
				dst.pages--
			}
		}
		dst.layout, dst.wear = m.layout, nil
		dst.lastBase, dst.lastPage = noPage, nil
		dst.watched, dst.onRead = dst.watched[:0], nil
		dst.Writes, dst.Reads = [2]uint64{}, [2]uint64{}
	}
	for base, p := range m.index.All() {
		if *p == nil {
			continue
		}
		if cp := dst.index.Slot(base); *cp != nil {
			**cp = **p
		} else {
			pg := **p
			*cp = &pg
			dst.pages++
		}
	}
	return dst
}

// PageBases returns the base addresses of every materialized page, sorted.
// Deterministic inspection order for image hashing and diffing.
func (m *Memory) PageBases() []Addr {
	bases := make([]Addr, 0, m.pages)
	for base, p := range m.index.All() {
		if *p != nil {
			bases = append(bases, base)
		}
	}
	return bases
}

func (m *Memory) mustAligned(a Addr) {
	if a%LineSize != 0 {
		panic(fmt.Sprintf("memory: address %#x not line-aligned", a))
	}
}
