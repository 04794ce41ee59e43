package coherence

import (
	"testing"

	"bbb/internal/memory"
)

// TestLockTableBoundaries pins the dense line-lock table at its edges: the
// first and last pages of DRAM and of NVMM (DRAM's last page and NVMM's
// first are adjacent in the default layout, and sit either side of the
// table's split) and the pages on either side of a page-table leaf
// boundary. Every line tested has the same offset in its page, so two
// pages aliasing one lock page would share a lock bit.
func TestLockTableBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	r := newRig(t, cfg, nil)
	l := r.mem.Layout()
	const line = 45 * memory.LineSize
	var addrs []memory.Addr
	for _, page := range []memory.Addr{
		l.DRAMBase, l.DRAMBase + memory.PageSize,
		l.DRAMBase + memory.LeafSpan - memory.PageSize, l.DRAMBase + memory.LeafSpan, // a page that opens a new leaf
		l.DRAMBase + l.DRAMSize - memory.PageSize,
		l.NVMMBase, l.NVMMBase + memory.PageSize,
		l.NVMMBase + memory.LeafSpan - memory.PageSize, l.NVMMBase + memory.LeafSpan,
		l.NVMMBase + l.NVMMSize - memory.PageSize,
	} {
		addrs = append(addrs, page+line)
	}
	for i, a := range addrs {
		r.store(t, 0, a, 8, uint64(i+1))
	}
	for i, a := range addrs {
		if got := r.load(t, 1, a, 8); got != uint64(i+1) {
			t.Fatalf("load %#x = %d, want %d", a, got, i+1)
		}
		r.store(t, 0, a, 8, uint64(i+1)) // take the line back in M
	}
	for _, a := range addrs {
		pg, bit := r.h.lockPageFor(a)
		if pg.held != 0 || pg.waiting != 0 {
			t.Fatalf("lock page of %#x not released: held %#x waiting %#x", a, pg.held, pg.waiting)
		}
		pg.held |= 1 << bit // a transaction in flight on a's line
		for _, b := range addrs {
			if got := r.h.LineWritable(0, b); got != (b != a) {
				t.Fatalf("holding %#x's line lock: LineWritable(%#x) = %v", a, b, got)
			}
		}
		pg.held &^= 1 << bit
	}
	r.check(t)
}

// TestLineWritableUntouchedPage: a page no transaction ever touched is not
// writable, and peeking at it allocates no lock-table leaf.
func TestLineWritableUntouchedPage(t *testing.T) {
	r := newRig(t, smallCfg(), nil)
	r.store(t, 0, r.nv(0), 8, 1)
	far := r.nv(0) + 64*memory.LeafSpan
	if r.h.LineWritable(0, far) {
		t.Fatal("an untouched line is writable")
	}
	if r.h.locks.Lookup(far) != nil {
		t.Fatal("LineWritable allocated a lock-table leaf")
	}
	if !r.h.LineWritable(0, r.nv(0)) {
		t.Fatal("the stored line should be writable")
	}
}
