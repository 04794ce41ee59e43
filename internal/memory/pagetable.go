package memory

import "iter"

// PageTable is a dense per-page table: one T for every page of the physical
// address space, found by indexing instead of hashing. It is two-level — a
// root slice of leaves, each covering leafPages consecutive pages — and a
// leaf is allocated only when a page in its range is first touched, so an
// address space of many gigabytes costs only the leaves it uses. The
// address space is split in two (at the NVMM base, for a machine's tables),
// each half with its own root indexed from the half's start: a region that
// sits gigabytes up still gets a short root when its low end is what is
// touched. Entries never move: a pointer returned by Slot stays valid for
// the table's lifetime.
type PageTable[T any] struct {
	split Addr
	roots [2][]*[leafPages]T // below split, and from split up
}

const (
	// leafBits sizes a leaf at 512 pages (2 MiB of address space). Small
	// leaves keep sparse tables cheap.
	leafBits  = 9
	leafPages = 1 << leafBits

	// LeafSpan is the address range one leaf covers; leaves start at every
	// multiple of it from address 0 and from the split.
	LeafSpan = leafPages * PageSize
)

// NewPageTable returns an empty table whose second root starts at split.
func NewPageTable[T any](split Addr) PageTable[T] { return PageTable[T]{split: split} }

// locate returns the root holding a's page and the page's number within
// that root's half.
func (t *PageTable[T]) locate(a Addr) (*[]*[leafPages]T, uint64) {
	if a >= t.split {
		return &t.roots[1], (a - t.split) / PageSize
	}
	return &t.roots[0], a / PageSize
}

// Slot returns the entry of a's page, allocating its leaf on first touch.
func (t *PageTable[T]) Slot(a Addr) *T {
	root, pn := t.locate(a)
	if i := pn >> leafBits; i < uint64(len(*root)) && (*root)[i] != nil {
		return &(*root)[i][pn&(leafPages-1)]
	}
	return grow(root, pn)
}

// grow allocates page pn's leaf, and the root slots up to it, and returns
// its entry: Slot's first-touch path.
func grow[T any](root *[]*[leafPages]T, pn uint64) *T {
	i := pn >> leafBits
	if n := uint64(len(*root)); i >= n {
		*root = append(*root, make([]*[leafPages]T, i+1-n)...)
	}
	if (*root)[i] == nil {
		(*root)[i] = new([leafPages]T)
	}
	return &(*root)[i][pn&(leafPages-1)]
}

// Lookup returns the entry of a's page, or nil when no page in its leaf has
// been touched (the entry would still hold T's zero value). It never
// allocates.
func (t *PageTable[T]) Lookup(a Addr) *T {
	root, pn := t.locate(a)
	if i := pn >> leafBits; i < uint64(len(*root)) && (*root)[i] != nil {
		return &(*root)[i][pn&(leafPages-1)]
	}
	return nil
}

// All yields the entry of every page in a touched leaf, in address order:
// the root below the split, then the root from the split up. Untouched
// pages of a touched leaf yield T's zero value; pages in untouched leaves
// are skipped.
func (t *PageTable[T]) All() iter.Seq2[Addr, *T] {
	return func(yield func(Addr, *T) bool) {
		for r, start := range [2]Addr{0, t.split} {
			for i, leaf := range t.roots[r] {
				if leaf == nil {
					continue
				}
				base := start + Addr(i)*LeafSpan
				for j := range leaf {
					if !yield(base+Addr(j)*PageSize, &leaf[j]) {
						return
					}
				}
			}
		}
	}
}
