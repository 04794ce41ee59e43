package memory

import (
	"slices"
	"testing"
)

func TestPageTableSlotsAndLeaves(t *testing.T) {
	l := DefaultLayout()
	pt := NewPageTable[int](l.NVMMBase)
	for _, base := range []Addr{0, l.NVMMBase} { // both halves of the split
		lastOfLeaf0, firstOfLeaf1 := base+LeafSpan-PageSize, base+LeafSpan
		if pt.Lookup(lastOfLeaf0) != nil || pt.Lookup(firstOfLeaf1) != nil {
			t.Fatalf("half at %#x: Lookup found an entry before any touch", base)
		}
		*pt.Slot(lastOfLeaf0 + 100) = 1 // any address in the page names its entry
		if pt.Lookup(firstOfLeaf1) != nil {
			t.Fatalf("half at %#x: touching the last page of a leaf allocated the next leaf", base)
		}
		if p := pt.Lookup(lastOfLeaf0); p == nil || *p != 1 {
			t.Fatalf("half at %#x: Lookup of a touched page = %v, want entry 1", base, p)
		}
		if p := pt.Lookup(lastOfLeaf0 - PageSize); p == nil || *p != 0 {
			t.Fatalf("half at %#x: an untouched page in a touched leaf must read as the zero entry", base)
		}
		*pt.Slot(firstOfLeaf1) = 2
		if *pt.Slot(lastOfLeaf0) != 1 || *pt.Slot(firstOfLeaf1) != 2 {
			t.Fatalf("half at %#x: pages on either side of a leaf boundary share an entry", base)
		}
	}
	// The last DRAM page and the first NVMM page sit on either side of the
	// split.
	*pt.Slot(l.NVMMBase - PageSize) = 3
	if *pt.Slot(l.NVMMBase) != 0 || *pt.Lookup(l.NVMMBase - PageSize) != 3 {
		t.Fatal("the pages either side of the split share an entry")
	}

	// Growing a root to a far address keeps earlier entries in place.
	p := pt.Slot(l.NVMMBase)
	far := l.NVMMBase + l.NVMMSize - LineSize
	*pt.Slot(far) = 4
	if pt.Slot(l.NVMMBase) != p || *pt.Lookup(far) != 4 {
		t.Fatal("root growth moved an entry or lost the far page")
	}
	if pt.Lookup(far+LeafSpan) != nil {
		t.Fatal("Lookup past the root found an entry")
	}
}

func TestPageTableAllInAddressOrder(t *testing.T) {
	l := DefaultLayout()
	pt := NewPageTable[int](l.NVMMBase)
	touched := []Addr{l.NVMMBase + 3*LeafSpan, 5 * PageSize, l.NVMMBase, 2*LeafSpan + PageSize}
	for i, a := range touched {
		*pt.Slot(a) = i + 1
	}
	var got []Addr
	for base, e := range pt.All() {
		if *e != 0 {
			got = append(got, base)
			if touched[*e-1] != base {
				t.Fatalf("All yielded entry %d at %#x, want %#x", *e, base, touched[*e-1])
			}
		}
	}
	want := []Addr{5 * PageSize, 2*LeafSpan + PageSize, l.NVMMBase, l.NVMMBase + 3*LeafSpan}
	if !slices.Equal(got, want) {
		t.Fatalf("All yielded touched pages %#x, want %#x", got, want)
	}
}

func TestPageTableLookupAllocs(t *testing.T) {
	pt := NewPageTable[uint64](DefaultLayout().NVMMBase)
	pt.Slot(PageSize)
	if n := testing.AllocsPerRun(100, func() {
		pt.Lookup(PageSize)
		pt.Lookup(1 << 40)
	}); n != 0 {
		t.Fatalf("Lookup allocates %v times, want 0", n)
	}
}
