package cpu

// storeBuffer is a core's buffered stores in program order, held in a
// fixed ring of SBEntries slots. Index 0 is the oldest entry. Draining the
// head — every drain under TSO — only advances the ring's start; only a
// §III-C relaxed drain of an interior entry moves entries, shifting the
// older ones one slot toward the tail. Nothing allocates after New.
type storeBuffer struct {
	ring  []sbEntry
	start int // ring slot of entry 0
	n     int // occupancy
}

func newStoreBuffer(entries int) storeBuffer {
	return storeBuffer{ring: make([]sbEntry, entries)}
}

func (b *storeBuffer) len() int   { return b.n }
func (b *storeBuffer) full() bool { return b.n == len(b.ring) }

// at returns the i-th oldest entry, 0 <= i < len().
func (b *storeBuffer) at(i int) *sbEntry {
	j := b.start + i
	if j >= len(b.ring) {
		j -= len(b.ring)
	}
	return &b.ring[j]
}

// push appends e as the youngest entry; the buffer must not be full.
func (b *storeBuffer) push(e sbEntry) {
	b.n++
	*b.at(b.n - 1) = e
}

// remove deletes and returns the i-th oldest entry, keeping the order of
// the rest.
func (b *storeBuffer) remove(i int) sbEntry {
	e := *b.at(i)
	for ; i > 0; i-- {
		*b.at(i) = *b.at(i - 1)
	}
	b.start++
	if b.start == len(b.ring) {
		b.start = 0
	}
	b.n--
	return e
}

// reset empties the buffer.
func (b *storeBuffer) reset() { b.start, b.n = 0, 0 }
