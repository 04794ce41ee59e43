package crashmc

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"

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
	// image of Enumerate and every recorded Violation. Deduplication does
	// not need it, so the images Run validates as they stream and those
	// Materialize returns leave it zero.
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
	var (
		enum Enumeration
		h    hasher
	)
	enum.Sets, enum.SetsSkipped = stream(newLineTable(rec), b, func(img Image, _ []LineWrite) {
		img = img.clone()
		img.Hash = h.sum(img.Overlay)
		enum.Images = append(enum.Images, img)
	})
	return enum
}

// stream walks the reachable crash-state space of t's record within b and
// calls fn once per distinct image, in first-seen order, with the image and
// the base image's lines under its overlay (base[i] is the base line
// Overlay[i] replaces, so a caller that applies the overlay to the record's
// Base in place can restore it). Images are deduplicated exactly by their
// line table keys and carry no Hash. The survival set, key and overlay
// buffers are reused from one set to the next: img and base are valid only
// during the call. It returns the Sets and SetsSkipped counts of the
// Enumeration.
func stream(t *lineTable, b Bounds, fn func(img Image, base []LineWrite)) (sets int, skipped uint64) {
	b = b.withDefaults()
	groups, total := survivalGroups(t.rec, b)

	var (
		seen = make(map[string]struct{}, min(total, uint64(b.MaxImages)))
		pick = make([]int, len(groups))
		set  = make([]int, 0, len(t.rec.Pending))
		r    = t.resolver()
	)
	// Odometer cross product over the groups' candidate sets, in
	// deterministic lexicographic order; the empty survival set (every
	// group's first candidate) always comes first.
	for {
		set = set[:0]
		for gi, g := range groups {
			set = append(set, g[pick[gi]]...)
		}
		slices.Sort(set)
		sets++
		key := r.resolve(set)
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			fn(r.image(set), r.base)
		}
		if sets >= b.MaxImages {
			break
		}
		i := len(groups) - 1
		for i >= 0 {
			pick[i]++
			if pick[i] < len(groups[i]) {
				break
			}
			pick[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	if total > uint64(sets) {
		skipped = total - uint64(sets)
	}
	return sets, skipped
}

// survivalGroups splits the pending set into independent groups and
// returns each group's legal candidate subsets (indices into Pending),
// plus the size of the FULL legal space (saturating) so callers can
// report how much the bounds pruned. ClassFree writes form one group
// with unconstrained subsets; each BEP core's ClassEpoch writes form a
// group whose subsets are epoch-downward closed (full earlier epochs,
// any bounded subset of the frontier epoch).
func survivalGroups(rec *Record, b Bounds) ([][][]int, uint64) {
	var free []int
	perCore := make(map[int][]int)
	var coreOrder []int
	for i, w := range rec.Pending {
		switch w.Class {
		case ClassFree:
			free = append(free, i)
		case ClassEpoch:
			if _, ok := perCore[w.Core]; !ok {
				coreOrder = append(coreOrder, w.Core)
			}
			perCore[w.Core] = append(perCore[w.Core], i)
		}
	}
	var groups [][][]int
	total := uint64(1)
	if len(free) > 0 {
		groups = append(groups, boundedSubsets(free, b))
		total = satMul(total, satPow2(len(free)))
	}
	for _, c := range coreOrder {
		groups = append(groups, epochSubsets(rec, perCore[c], b))
		total = satMul(total, epochSpaceSize(rec, perCore[c]))
	}
	if len(groups) == 0 {
		// No pending writes: the space is exactly {base image}.
		groups = append(groups, [][]int{{}})
	}
	return groups, total
}

// epochSpaceSize counts one core's full legal survival space: the empty
// set plus, for each epoch as the frontier, its nonempty subsets (the
// full-frontier set of epoch e coincides with the empty-frontier cut at
// epoch e+1, so per-epoch counts are 2^|e| - 1).
func epochSpaceSize(rec *Record, idx []int) uint64 {
	counts := epochRuns(rec, idx)
	total := uint64(1)
	for _, n := range counts {
		total += satPow2(n) - 1
		if total == ^uint64(0) {
			break
		}
	}
	return total
}

// epochRuns returns the run lengths of consecutive equal-epoch entries
// (capture order is allocation order, so idx is epoch-nondecreasing).
func epochRuns(rec *Record, idx []int) []int {
	var (
		runs []int
		last uint64
	)
	for _, i := range idx {
		e := rec.Pending[i].Epoch
		if len(runs) == 0 || e != last {
			runs = append(runs, 0)
			last = e
		}
		runs[len(runs)-1]++
	}
	return runs
}

// subsetArena lays subsets back to back in one slice. sets carves them out
// only once all are in, so no append can move a subset already handed out.
type subsetArena struct {
	ints []int
	ends []int // ends[i] is where subset i stops in ints
}

// cut ends the subset being appended to ints.
func (a *subsetArena) cut() { a.ends = append(a.ends, len(a.ints)) }

func (a *subsetArena) sets() [][]int {
	out := make([][]int, len(a.ends))
	start := 0
	for i, end := range a.ends {
		out[i] = a.ints[start:end:end]
		start = end
	}
	return out
}

// boundedSubsets returns subsets of idx per Bounds, deterministically
// ordered by cardinality ascending, so the empty set is always first and
// the near-full complements last. Within a cardinality an exhaustive group
// is in mask order (bit i standing for idx[i]) and a bounded one in
// lexicographic order.
func boundedSubsets(idx []int, b Bounds) [][]int {
	n := len(idx)
	var a subsetArena
	if n <= b.ExhaustiveLimit {
		a.ints, a.ends = make([]int, 0, n<<n>>1), make([]int, 0, 1<<n)
		for k := 0; k <= n; k++ {
			for mask := uint(0); mask < 1<<n; mask++ {
				if bits.OnesCount(mask) != k {
					continue
				}
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						a.ints = append(a.ints, idx[i])
					}
				}
				a.cut()
			}
		}
		return a.sets()
	}
	for k := 0; k <= n; k++ {
		if k <= b.MaxFlips || k >= n-b.MaxFlips {
			combinations(idx, k, func(s []int) {
				a.ints = append(a.ints, s...)
				a.cut()
			})
		}
	}
	return a.sets()
}

// combinations calls fn with every k-of-idx combination in lexicographic
// order. fn must copy s if it retains it.
func combinations(idx []int, k int, fn func(s []int)) {
	if k == 0 {
		fn(nil)
		return
	}
	sel := make([]int, k)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == k {
			fn(sel)
			return
		}
		for i := start; i <= len(idx)-(k-d); i++ {
			sel[d] = idx[i]
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
}

// epochSubsets returns one core's legal vpb survival sets: the empty set,
// then for each cut epoch, every earlier epoch in full plus a nonempty
// bounded subset of the frontier epoch. A frontier's empty subset is left
// out because it repeats the previous cut's full frontier (or, for the
// first cut, the leading empty set), which boundedSubsets always includes.
func epochSubsets(rec *Record, idx []int, b Bounds) [][]int {
	var a subsetArena
	a.cut()     // nothing extra drained
	prefix := 0 // idx[:prefix] are the earlier epochs' writes
	for _, n := range epochRuns(rec, idx) {
		for _, fs := range boundedSubsets(idx[prefix:prefix+n], b)[1:] {
			a.ints = append(a.ints, idx[:prefix]...)
			a.ints = append(a.ints, fs...)
			a.cut()
		}
		prefix += n
	}
	return a.sets()
}

// materialize resolves a survival set into its image, through a line table
// of its own. The image carries no Hash.
func materialize(rec *Record, survivors []int) Image {
	r := newLineTable(rec).resolver()
	r.resolve(survivors)
	return r.image(survivors)
}

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
}

func newLineTable(rec *Record) *lineTable {
	t := &lineTable{
		rec:   rec,
		line:  make([]int32, len(rec.Pending)),
		class: make([]int32, len(rec.Pending)),
	}
	for _, w := range rec.Pending {
		t.addrs = append(t.addrs, w.Addr)
	}
	slices.Sort(t.addrs)
	t.addrs = slices.Compact(t.addrs)
	t.base = make([][memory.LineSize]byte, len(t.addrs))
	for l, a := range t.addrs {
		rec.Base.PeekLine(a, &t.base[l])
	}
	for i := range rec.Pending {
		w := &rec.Pending[i]
		l, _ := slices.BinarySearch(t.addrs, w.Addr)
		t.line[i] = int32(l)
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
	return t
}

// resolver turns survival sets into dedupe keys and images through a line
// table, reusing its buffers from one set to the next.
type resolver struct {
	t      *lineTable
	newest []int32 // per line: 1 + its newest survivor, 0 for none; all 0 between calls
	hits   []int32 // the set's newest survivors whose bytes differ from the base, in line order
	key    []byte
	// overlay and base are the image of the set resolved last: its
	// overlay lines and the base lines under them.
	overlay []LineWrite
	base    []LineWrite
}

func (t *lineTable) resolver() *resolver {
	return &resolver{t: t, newest: make([]int32, len(t.addrs))}
}

// resolve resolves a survival set and returns its dedupe key: the (line,
// class) pair of every line whose resolved bytes differ from the base
// image, in line order. A line resolves to its newest surviving write —
// the highest index, as pending writes are in Seq order — so two sets get
// equal keys exactly when their images are byte-equal. The pairs are
// uvarints, which are self-delimiting, so the encoding is one-to-one and a
// small record's pair takes two bytes. The key aliases r's buffer until
// the next call.
func (r *resolver) resolve(survivors []int) []byte {
	t := r.t
	for _, i := range survivors {
		if l := t.line[i]; int32(i)+1 > r.newest[l] {
			r.newest[l] = int32(i) + 1
		}
	}
	r.hits, r.key = r.hits[:0], r.key[:0]
	for l, n := range r.newest {
		if n == 0 {
			continue
		}
		r.newest[l] = 0
		if c := t.class[n-1]; c != 0 {
			r.hits = append(r.hits, n-1)
			r.key = binary.AppendUvarint(r.key, uint64(l))
			r.key = binary.AppendUvarint(r.key, uint64(c))
		}
	}
	return r.key
}

// image builds the image of the set resolve saw last, in r's buffers:
// Overlay and r.base alias them until the next call.
func (r *resolver) image(survivors []int) Image {
	t := r.t
	r.overlay, r.base = r.overlay[:0], r.base[:0]
	for _, p := range r.hits {
		l := t.line[p]
		r.overlay = append(r.overlay, LineWrite{Addr: t.addrs[l], Data: t.rec.Pending[p].Data})
		r.base = append(r.base, LineWrite{Addr: t.addrs[l], Data: t.base[l]})
	}
	return Image{Survivors: survivors, Overlay: r.overlay}
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
