package crashmc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"bbb/internal/memory"
)

// Bounds keep the enumerated survival-set space tractable. The reachable
// space is exponential in the pending-write count (that is the point the
// paper makes about PMEM), so beyond a small exhaustive window the
// enumerator explores only the subsets near the two extreme images — the
// crash-consistency bugs this models (persist reordering across a missing
// barrier) are witnessed by small subsets, exactly as sampled-reordering
// crash testers bound their search.
type Bounds struct {
	// ExhaustiveLimit: a survival group with at most this many writes is
	// enumerated exhaustively (2^n subsets). Default 10.
	ExhaustiveLimit int
	// MaxFlips: a larger group is enumerated at every subset within
	// MaxFlips writes of either extreme (none survive / all survive),
	// i.e. |S| <= MaxFlips or |S| >= n-MaxFlips. Default 2.
	MaxFlips int
	// MaxImages caps the survival sets materialized per crash point;
	// enumeration past the cap is counted in SetsSkipped, never silent.
	// Default 4096. The empty survival set always streams first, so 1
	// checks exactly the deterministic flush-on-fail image.
	MaxImages int
}

// DefaultBounds are the short-campaign bounds used by `make mc-short`.
func DefaultBounds() Bounds { return Bounds{} }

func (b Bounds) withDefaults() Bounds {
	if b.ExhaustiveLimit <= 0 {
		b.ExhaustiveLimit = 10
	}
	if b.MaxFlips <= 0 {
		b.MaxFlips = 2
	}
	if b.MaxImages <= 0 {
		b.MaxImages = 4096
	}
	return b
}

// LineWrite is one line of an image's overlay relative to the base image.
type LineWrite struct {
	Addr memory.Addr
	Data [memory.LineSize]byte
}

// Image is one distinct reachable durable state.
type Image struct {
	// Survivors are indices into Record.Pending (ascending) of the first
	// enumerated survival set that produced this image.
	Survivors []int
	// Overlay holds the lines whose bytes differ from the base image,
	// ascending by address — the canonical form the hash covers.
	Overlay []LineWrite
	// Hash is the canonical image hash: SHA-256 over each Overlay line's
	// little-endian address and 64 data bytes, in address order, so equal
	// images have equal hashes. Only reported images carry it — every
	// image of Enumerate and every recorded Violation; deduplication does
	// not need it.
	Hash [32]byte
}

// Enumeration is the materialized reachable space at one crash point.
type Enumeration struct {
	// Sets is the number of legal survival sets enumerated.
	Sets int
	// SetsSkipped counts legal sets the bounds left unexplored — pruned
	// by ExhaustiveLimit/MaxFlips or cut by MaxImages (bounded-model-
	// checking honesty: truncation is never silent).
	SetsSkipped uint64
	// Images are the distinct reachable images, in first-seen order.
	// Images[0] always exists and is the deterministic flush-on-fail
	// image (the empty survival set extends the base by nothing).
	Images []Image
}

// Enumerate materializes the reachable crash-state space of rec within b:
// the collecting form of stream, with every image's Hash computed.
func Enumerate(rec *Record, b Bounds) Enumeration {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.enumerate(rec, b)
}

func (s *scratch) enumerate(rec *Record, b Bounds) Enumeration {
	s.load(rec)
	var enum Enumeration
	enum.Sets, enum.SetsSkipped = s.stream(b, func() {
		img := s.r.image().clone()
		img.Hash = s.h.sum(img.Overlay)
		enum.Images = append(enum.Images, img)
	})
	return enum
}

// scratch holds every buffer the enumeration of one crash point needs: the
// line table, both resolvers, the survival groups' subsets, the odometer,
// the dedupe key set, and the validator's line pointers and verdict memo.
// A walker reuses one from point to point, so a warmed-up stream allocates
// nothing per set. It serves one record at a time, from load to the end of
// the stream that follows; CheckRecord, Enumerate and Witness.Recapture
// take one from scratchPool and put it back when their point is done, so
// concurrent walkers never share one.
type scratch struct {
	table lineTable
	// r resolves the streamed sets; mr is minimization's, which runs
	// inside the stream's callback while r still holds the current image.
	r, mr resolver
	seen  keySet
	h     hasher

	free, epoch, cores []int // survivalGroups' pending indices and core list
	subsets            subsetArena
	groupEnds          []int // group g is subsets groupEnds[g-1] (or 0) up to groupEnds[g]
	pick               []int // the odometer: one subset per group; s.r.set is their union

	// lines points at each line of the table in place in the record's
	// Base, resolved by bindLines after load.
	lines []*[memory.LineSize]byte
	memo  verdictMemo
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// load points s at rec: it rebuilds the line table — before any overlay
// touches rec.Base — and resets both resolvers.
func (s *scratch) load(rec *Record) {
	s.table.reset(rec)
	s.r.reset(&s.table)
	s.mr.reset(&s.table)
}

// stream walks the reachable crash-state space of the loaded record within
// b and calls fn once per distinct image, in first-seen order. During the
// call s.r holds the survival set that first produced the image, as a
// mask: s.r.image builds the image (without Hash), and s.r.resolve its
// hits, for a caller that needs them. Images are deduplicated exactly by
// their line table keys, unless the table shows that distinct sets give
// distinct images (lineTable.distinct); only the keys make the stream
// resolve a set. s.r's buffers are reused from one set to the next, so they
// are valid only during the call. It returns the Sets and SetsSkipped
// counts of the Enumeration.
func (s *scratch) stream(b Bounds, fn func()) (sets int, skipped uint64) {
	b = b.withDefaults()
	total := s.survivalGroups(b)
	dedupe := !s.table.distinct()
	if dedupe {
		s.seen.reset(int(min(total, uint64(b.MaxImages))))
	}
	r := &s.r
	r.empty()
	s.pick = s.pick[:0]
	for g := range s.groupEnds {
		s.pick = append(s.pick, s.groupStart(g))
	}
	// Odometer cross product over the groups' candidate sets, in
	// deterministic lexicographic order; the empty survival set (every
	// group's first candidate) always comes first. A group whose pick
	// moves swaps its old subset for the new one in the set by XOR, which
	// is exact as no two groups share a pending write.
	for {
		sets++
		if !dedupe || s.seen.add(r.key()) {
			fn()
		}
		if sets >= b.MaxImages {
			break
		}
		g := len(s.pick) - 1
		for g >= 0 {
			old := s.pick[g]
			s.pick[g]++
			if s.pick[g] == s.groupEnds[g] {
				s.pick[g] = s.groupStart(g)
			}
			r.toggle(s.subsets.mask(old))
			r.toggle(s.subsets.mask(s.pick[g]))
			if s.pick[g] != s.groupStart(g) {
				break
			}
			g--
		}
		if g < 0 {
			break
		}
	}
	if total > uint64(sets) {
		skipped = total - uint64(sets)
	}
	return sets, skipped
}

func (s *scratch) groupStart(g int) int {
	if g == 0 {
		return 0
	}
	return s.groupEnds[g-1]
}

// survivalGroups splits the loaded record's pending set into independent
// groups and lays each group's legal candidate subsets (indices into
// Pending) into s.subsets, ending group g at s.groupEnds[g]. It returns
// the size of the FULL legal space (saturating) so callers can report how
// much the bounds pruned. ClassFree writes form one group with
// unconstrained subsets; each BEP core's ClassEpoch writes, cores in
// first-seen order, form a group whose subsets are epoch-downward closed
// (full earlier epochs, any bounded subset of the frontier epoch).
func (s *scratch) survivalGroups(b Bounds) uint64 {
	rec := s.table.rec
	s.free, s.cores = s.free[:0], s.cores[:0]
	for i, w := range rec.Pending {
		switch w.Class {
		case ClassFree:
			s.free = append(s.free, i)
		case ClassEpoch:
			if !slices.Contains(s.cores, w.Core) {
				s.cores = append(s.cores, w.Core)
			}
		}
	}
	a := &s.subsets
	a.reset(s.table.words())
	s.groupEnds = s.groupEnds[:0]
	total := uint64(1)
	if len(s.free) > 0 {
		a.bounded(nil, s.free, 0, b)
		s.groupEnds = append(s.groupEnds, a.n)
		total = satMul(total, satPow2(len(s.free)))
	}
	for _, c := range s.cores {
		s.epoch = s.epoch[:0]
		for i, w := range rec.Pending {
			if w.Class == ClassEpoch && w.Core == c {
				s.epoch = append(s.epoch, i)
			}
		}
		a.epochs(rec, s.epoch, b)
		s.groupEnds = append(s.groupEnds, a.n)
		total = satMul(total, epochSpaceSize(rec, s.epoch))
	}
	if len(s.groupEnds) == 0 {
		// No pending writes: the space is exactly {base image}.
		a.open(nil)
		s.groupEnds = append(s.groupEnds, 1)
	}
	return total
}

// epochSpaceSize counts one core's full legal survival space: the empty
// set plus, for each epoch as the frontier, its nonempty subsets (the
// full-frontier set of epoch e coincides with the empty-frontier cut at
// epoch e+1, so per-epoch counts are 2^|e| - 1).
func epochSpaceSize(rec *Record, idx []int) uint64 {
	total := uint64(1)
	for lo := 0; lo < len(idx); {
		hi := epochRunEnd(rec, idx, lo)
		total += satPow2(hi-lo) - 1
		if total == ^uint64(0) {
			break
		}
		lo = hi
	}
	return total
}

// epochRunEnd returns the end of the run of equal-epoch entries of idx
// that starts at lo (capture order is allocation order, so idx is
// epoch-nondecreasing).
func epochRunEnd(rec *Record, idx []int, lo int) int {
	hi := lo + 1
	for hi < len(idx) && rec.Pending[idx[hi]].Epoch == rec.Pending[idx[lo]].Epoch {
		hi++
	}
	return hi
}

// subsetArena lays subsets back to back in one slice that a scratch reuses
// from point to point, each as a mask of words words over the pending
// writes (bit i standing for Pending[i]).
type subsetArena struct {
	masks []uint64
	words int
	n     int   // subsets laid out
	pos   []int // combinations' cursor
}

func (a *subsetArena) reset(words int) { a.masks, a.words, a.n = a.masks[:0], words, 0 }

// open appends a subset holding prefix and returns its mask, which
// aliases the arena until the next open.
func (a *subsetArena) open(prefix []int) []uint64 {
	n := len(a.masks)
	a.masks = slices.Grow(a.masks, a.words)[:n+a.words]
	a.n++
	m := a.masks[n:]
	clear(m)
	for _, i := range prefix {
		setBit(m, i)
	}
	return m
}

// mask returns subset j's mask; it aliases the arena until its next reset.
func (a *subsetArena) mask(j int) []uint64 { return a.masks[j*a.words : (j+1)*a.words] }

// bounded appends the subsets of idx the bounds keep that have at least
// kmin members, each after prefix, ordered by cardinality ascending, so
// the empty set (for kmin 0) is first and the near-full complements last.
// Within a cardinality an exhaustive group is in mask order (bit i
// standing for idx[i]), which Gosper's next-same-popcount step walks, and
// a bounded one in lexicographic order.
func (a *subsetArena) bounded(prefix, idx []int, kmin int, b Bounds) {
	n := len(idx)
	if n <= b.ExhaustiveLimit {
		for k := kmin; k <= n; k++ {
			if k == 0 {
				a.open(prefix)
				continue
			}
			for pick := uint(1)<<k - 1; pick < 1<<n; {
				m := a.open(prefix)
				for x := pick; x != 0; x &= x - 1 {
					setBit(m, idx[bits.TrailingZeros(x)])
				}
				low := pick & -pick
				up := pick + low
				pick = up | (up^pick)>>2/low
			}
		}
		return
	}
	for k := kmin; k <= n; k++ {
		if k <= b.MaxFlips || k >= n-b.MaxFlips {
			a.combinations(prefix, idx, k)
		}
	}
}

// combinations appends every k-of-idx combination, each after prefix, in
// lexicographic order.
func (a *subsetArena) combinations(prefix, idx []int, k int) {
	n := len(idx)
	a.pos = a.pos[:0]
	for i := 0; i < k; i++ {
		a.pos = append(a.pos, i)
	}
	for {
		m := a.open(prefix)
		for _, p := range a.pos {
			setBit(m, idx[p])
		}
		i := k - 1
		for i >= 0 && a.pos[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		a.pos[i]++
		for j := i + 1; j < k; j++ {
			a.pos[j] = a.pos[j-1] + 1
		}
	}
}

// epochs appends one core's legal vpb survival sets: the empty set, then
// for each cut epoch, every earlier epoch in full plus a nonempty bounded
// subset of the frontier epoch. A frontier's empty subset is left out
// because it repeats the previous cut's full frontier (or, for the first
// cut, the leading empty set), which bounded always includes.
func (a *subsetArena) epochs(rec *Record, idx []int, b Bounds) {
	a.open(nil) // nothing extra drained
	for lo := 0; lo < len(idx); {
		hi := epochRunEnd(rec, idx, lo)
		a.bounded(idx[:lo], idx[lo:hi], 1, b)
		lo = hi
	}
}

// setBit adds pending write i to the set mask m.
func setBit(m []uint64, i int) { m[i>>6] |= 1 << (i & 63) }

// hasBit reports whether pending write i is in the set mask m.
func hasBit(m []uint64, i int32) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// clone detaches an image from a stream's reused buffers.
func (img Image) clone() Image {
	img.Survivors = slices.Clone(img.Survivors)
	if len(img.Overlay) == 0 {
		img.Overlay = nil
	} else {
		img.Overlay = slices.Clone(img.Overlay)
	}
	return img
}

// lineTable is one record's pending writes resolved to lines, built once
// per record before any overlay touches its Base: survival sets then
// resolve to images without reading memory, sorting or hashing.
type lineTable struct {
	rec   *Record
	addrs []memory.Addr           // the distinct pending lines, ascending
	base  [][memory.LineSize]byte // each line's bytes in rec.Base
	line  []int32                 // per pending write: its index into addrs
	// class is each pending write's value class: 0 when its bytes equal
	// the base line's, otherwise 1 plus the smallest pending index with
	// the same line and the same bytes. Two writes to one line leave the
	// same bytes exactly when their classes are equal.
	class []int32
	// newest lists each line's pending writes newest first: line l's are
	// newest[off[l]:off[l+1]]. A line of an image shows its newest
	// surviving write.
	newest []int32
	off    []int32
}

// reset rebuilds t for rec in t's buffers.
func (t *lineTable) reset(rec *Record) {
	t.rec = rec
	t.line = resize(t.line, len(rec.Pending))
	t.class = resize(t.class, len(rec.Pending))
	t.addrs = t.addrs[:0]
	for _, w := range rec.Pending {
		t.addrs = append(t.addrs, w.Addr)
	}
	slices.Sort(t.addrs)
	t.addrs = slices.Compact(t.addrs)
	t.base = resize(t.base, len(t.addrs))
	for l, a := range t.addrs {
		rec.Base.PeekLine(a, &t.base[l])
	}
	for i := range rec.Pending {
		w := &rec.Pending[i]
		l, _ := slices.BinarySearch(t.addrs, w.Addr)
		t.line[i] = int32(l)
		t.class[i] = 0
		if w.Data == t.base[l] {
			continue
		}
		t.class[i] = int32(i + 1)
		for j := 0; j < i; j++ {
			if t.line[j] == int32(l) && rec.Pending[j].Data == w.Data {
				t.class[i] = t.class[j]
				break
			}
		}
	}
	// A counting sort by line, newest first. off[l+1] counts line l's
	// writes, and the prefix sums make off[l] line l's start; filling
	// advances each off[l] to line l's end, so shifting off up one slot
	// makes it line l+1's start again.
	t.off = resize(t.off, len(t.addrs)+1)
	clear(t.off)
	for _, l := range t.line {
		t.off[l+1]++
	}
	for l := range t.addrs {
		t.off[l+1] += t.off[l]
	}
	t.newest = resize(t.newest, len(rec.Pending))
	for i := len(rec.Pending) - 1; i >= 0; i-- {
		l := t.line[i]
		t.newest[t.off[l]] = int32(i)
		t.off[l]++
	}
	copy(t.off[1:], t.off)
	t.off[0] = 0
}

// words returns the length of a set mask over the record's pending writes.
func (t *lineTable) words() int { return (len(t.line) + 63) / 64 }

// survivor returns line l's newest write in the survival set mask set, or
// -1 if none is: the write whose bytes the line shows in set's image.
func (t *lineTable) survivor(set []uint64, l int32) int32 {
	for _, i := range t.newest[t.off[l]:t.off[l+1]] {
		if hasBit(set, i) {
			return i
		}
	}
	return -1
}

// probe returns the value class line l takes under the survival set mask
// set: its survivor's, or 0 (the base bytes) for none.
func (t *lineTable) probe(set []uint64, l int32) int32 {
	if i := t.survivor(set, l); i >= 0 {
		return t.class[i]
	}
	return 0
}

// distinct reports whether distinct survival sets give distinct images:
// whether every pending write has a line of its own and bytes that differ
// from the base line's. A set's image then shows each survivor's bytes on
// its line and the base bytes on every other, so the image names the set.
func (t *lineTable) distinct() bool {
	if len(t.addrs) != len(t.line) {
		return false
	}
	for _, c := range t.class {
		if c == 0 {
			return false
		}
	}
	return true
}

// resize returns s with length n, reusing its backing array when it fits;
// the contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// resolver holds one survival set as a mask and turns it into a dedupe
// key and an image through a line table, reusing its buffers from one set
// to the next. It resolves the set's hits only when one of those is asked
// for, once per set.
type resolver struct {
	t        *lineTable
	set      []uint64 // bit i: Pending[i] survives
	resolved bool     // hits hold set's resolution
	hits     []int32  // the set's newest survivors whose bytes differ from the base, in line order
	keyBuf   []byte
	// surv and overlay are image's buffers: the set's survivors and
	// overlay.
	surv    []int
	overlay []LineWrite
}

// reset points r at t, whose lines may have changed, and empties its set.
func (r *resolver) reset(t *lineTable) {
	r.t = t
	r.set = resize(r.set, t.words())
	r.empty()
}

// empty empties r's set.
func (r *resolver) empty() {
	clear(r.set)
	r.resolved = false
}

// load makes survivors r's set.
func (r *resolver) load(survivors []int) {
	r.empty()
	for _, i := range survivors {
		setBit(r.set, i)
	}
}

// toggle flips the membership of every write in the mask m.
func (r *resolver) toggle(m []uint64) {
	for w, x := range m {
		r.set[w] ^= x
	}
	r.resolved = false
}

// resolve resolves r's set into r.hits, unless it already has, and returns
// them: the newest survivor of every line whose resolved bytes differ from
// the base image, in line order.
func (r *resolver) resolve() []int32 {
	if r.resolved {
		return r.hits
	}
	t := r.t
	// The appends go to a local, stored back once: a slice header written
	// into r on every append costs a GC write barrier while marking.
	hits := r.hits[:0]
	for l := range t.addrs {
		if i := t.survivor(r.set, int32(l)); i >= 0 && t.class[i] != 0 {
			hits = append(hits, i)
		}
	}
	r.hits, r.resolved = hits, true
	return hits
}

// key returns the dedupe key of r's set: the (line, class) pair of each
// hit, in line order, so two sets get equal keys exactly when their images
// are byte-equal. The pairs are uvarints, which are self-delimiting, so
// the encoding is one-to-one and a small record's pair takes two bytes.
// The key aliases r's buffer until the next call.
func (r *resolver) key() []byte {
	t := r.t
	key := r.keyBuf[:0] // a local, as in resolve
	for _, p := range r.resolve() {
		key = binary.AppendUvarint(key, uint64(t.line[p]))
		key = binary.AppendUvarint(key, uint64(t.class[p]))
	}
	r.keyBuf = key
	return key
}

// image builds the image of r's set: its Survivors ascending, as the set's
// bits are, and its Overlay. Both alias r's buffers until the next call.
func (r *resolver) image() Image {
	t := r.t
	surv := r.surv[:0] // locals, as in resolve
	for w, x := range r.set {
		for ; x != 0; x &= x - 1 {
			surv = append(surv, w<<6|bits.TrailingZeros64(x))
		}
	}
	if surv == nil {
		surv = []int{} // Survivors of the empty set is empty, not nil
	}
	overlay := r.overlay[:0]
	for _, p := range r.resolve() {
		overlay = append(overlay, LineWrite{Addr: t.addrs[t.line[p]], Data: t.rec.Pending[p].Data})
	}
	r.surv, r.overlay = surv, overlay
	return Image{Survivors: surv, Overlay: overlay}
}

// hasher computes canonical image hashes (see Image.Hash), reusing one
// encoding buffer.
type hasher struct{ canon []byte }

func (h *hasher) sum(overlay []LineWrite) [32]byte {
	h.canon = h.canon[:0]
	for i := range overlay {
		h.canon = binary.LittleEndian.AppendUint64(h.canon, overlay[i].Addr)
		h.canon = append(h.canon, overlay[i].Data[:]...)
	}
	return sha256.Sum256(h.canon)
}

// keySet is an exact set of byte strings that a scratch reuses from one
// crash point to the next: the keys lie back to back in one arena, and an
// open-addressed table with linear probing holds each key's span and
// hash. A lookup compares the full key bytes, so two keys are one member
// only when they are equal; the hash only picks the slot.
type keySet struct {
	arena []byte
	slots []keySlot // a power of two in length, at most half full
	shift uint      // 64 - log2(len(slots)): a hash's top bits pick its slot
	n     int
}

type keySlot struct {
	hash uint64
	off  int
	size int // 1 + the key's length; 0 marks an empty slot
}

// reset empties the set and sizes its table for n keys, but for at most
// 4096 (the default MaxImages): past that the table grows as it fills, so
// a large MaxImages costs only what the distinct images need.
func (s *keySet) reset(n int) {
	size := 8
	for size < 2*min(n, 4096) {
		size <<= 1
	}
	s.slots = resize(s.slots, size)
	clear(s.slots)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.arena, s.n = s.arena[:0], 0
}

// add inserts a copy of key and reports whether it was absent.
func (s *keySet) add(key []byte) bool {
	h := fnv1a(key)
	i := s.find(h, key)
	if s.slots[i].size != 0 {
		return false
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
		i = s.find(h, key)
	}
	s.slots[i] = keySlot{hash: h, off: len(s.arena), size: len(key) + 1}
	s.arena = append(s.arena, key...)
	s.n++
	return true
}

// find returns key's slot, or the empty slot where it would go.
func (s *keySet) find(h uint64, key []byte) int {
	mask := len(s.slots) - 1
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.size == 0 || sl.hash == h && bytes.Equal(s.arena[sl.off:sl.off+sl.size-1], key) {
			return i
		}
	}
}

// grow doubles the table and reinserts every key.
func (s *keySet) grow() {
	old := s.slots
	s.slots = make([]keySlot, 2*len(old))
	s.shift--
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.size == 0 {
			continue
		}
		i := int(sl.hash >> s.shift)
		for s.slots[i].size != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func satPow2(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << uint(n)
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > ^uint64(0)/b {
		return ^uint64(0)
	}
	return a * b
}
