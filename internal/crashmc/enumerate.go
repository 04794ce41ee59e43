package crashmc

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"

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
	// Default 4096.
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
	// Hash is the canonical image hash: images with equal hashes are the
	// same durable state even if reached by different survival sets.
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
// the collecting form of stream.
func Enumerate(rec *Record, b Bounds) Enumeration {
	var enum Enumeration
	enum.Sets, enum.SetsSkipped = stream(rec, b, func(img Image, _ []LineWrite) {
		enum.Images = append(enum.Images, img.clone())
	})
	return enum
}

// stream walks the reachable crash-state space of rec within b and calls fn
// once per distinct image, in first-seen order, with the image and the base
// image's lines under its overlay (base[i] is the base line Overlay[i]
// replaces, so a caller that applies the overlay to rec.Base in place can
// restore it). The survival set, overlay, line and hash buffers are reused
// from one set to the next: img and base are valid only during the call.
// It returns the Sets and SetsSkipped counts of the Enumeration.
func stream(rec *Record, b Bounds, fn func(img Image, base []LineWrite)) (sets int, skipped uint64) {
	b = b.withDefaults()
	groups, total := survivalGroups(rec, b)

	var (
		seen = make(map[[32]byte]struct{}, min(total, uint64(b.MaxImages)))
		pick = make([]int, len(groups))
		set  = make([]int, 0, len(rec.Pending))
		m    materializer
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
		img := m.image(rec, set)
		if _, dup := seen[img.Hash]; !dup {
			seen[img.Hash] = struct{}{}
			fn(img, m.base)
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

// boundedSubsets returns subsets of idx per Bounds, deterministically
// ordered: by cardinality ascending, lexicographic within a cardinality,
// with the near-full complements last. The empty set is always first.
func boundedSubsets(idx []int, b Bounds) [][]int {
	n := len(idx)
	if n <= b.ExhaustiveLimit {
		out := make([][]int, 0, 1<<uint(n))
		for mask := 0; mask < 1<<uint(n); mask++ {
			var s []int
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					s = append(s, idx[i])
				}
			}
			out = append(out, s)
		}
		sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
		return out
	}
	var sizes []int
	for k := 0; k <= n; k++ {
		if k <= b.MaxFlips || k >= n-b.MaxFlips {
			sizes = append(sizes, k)
		}
	}
	var out [][]int
	for _, k := range sizes {
		combinations(idx, k, func(s []int) {
			out = append(out, append([]int(nil), s...))
		})
	}
	return out
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

// epochSubsets returns one core's legal vpb survival sets: for each cut
// epoch, every earlier epoch survives in full and the frontier epoch
// contributes any bounded subset. Duplicates across adjacent cuts (full
// frontier == next cut's empty frontier) are removed.
func epochSubsets(rec *Record, idx []int, b Bounds) [][]int {
	// Group the core's pending indices by epoch, ascending. Capture
	// order is allocation order and epochs only ever increment, so idx
	// is already epoch-nondecreasing.
	var (
		epochs [][]int
		last   uint64
	)
	for _, i := range idx {
		e := rec.Pending[i].Epoch
		if len(epochs) == 0 || e != last {
			epochs = append(epochs, nil)
			last = e
		}
		epochs[len(epochs)-1] = append(epochs[len(epochs)-1], i)
	}
	var (
		out    [][]int
		seen   = make(map[string]bool)
		prefix []int
	)
	add := func(s []int) {
		key := setKey(s)
		if !seen[key] {
			seen[key] = true
			out = append(out, append([]int(nil), s...))
		}
	}
	add(nil) // nothing extra drained
	for _, frontier := range epochs {
		for _, fs := range boundedSubsets(frontier, b) {
			add(append(append([]int(nil), prefix...), fs...))
		}
		prefix = append(prefix, frontier...)
	}
	return out
}

func setKey(s []int) string {
	k := make([]byte, 0, 4*len(s))
	for _, i := range s {
		k = binary.LittleEndian.AppendUint32(k, uint32(i))
	}
	return string(k)
}

// materialize resolves a survival set into its canonical image, in
// buffers of its own.
func materialize(rec *Record, survivors []int) Image {
	var m materializer
	return m.image(rec, survivors)
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

// materializer resolves survival sets into images, reusing its buffers
// from one set to the next.
type materializer struct {
	lines   []lineRef   // the set's lines and the newest surviving write to each
	overlay []LineWrite // the lines that differ from the base image
	base    []LineWrite // the base image's bytes under each overlay line
	canon   []byte      // the overlay's canonical encoding, the hash input
}

type lineRef struct {
	addr    memory.Addr
	pending int // index into Record.Pending
}

// image resolves a survival set into its canonical image: survivors apply
// in capture (Seq) order, lines whose final bytes equal the base image drop
// out, and the rest hash in address order. The image's Overlay and m.base
// alias m's buffers until the next call.
func (m *materializer) image(rec *Record, survivors []int) Image {
	m.lines = m.lines[:0]
	for _, i := range survivors { // ascending index == ascending Seq
		a := rec.Pending[i].Addr
		j := 0
		for j < len(m.lines) && m.lines[j].addr != a {
			j++
		}
		if j == len(m.lines) {
			m.lines = append(m.lines, lineRef{addr: a})
		}
		m.lines[j].pending = i
	}
	slices.SortFunc(m.lines, func(a, b lineRef) int { return cmp.Compare(a.addr, b.addr) })
	m.overlay, m.base, m.canon = m.overlay[:0], m.base[:0], m.canon[:0]
	for _, l := range m.lines {
		data := &rec.Pending[l.pending].Data
		m.base = append(m.base, LineWrite{Addr: l.addr})
		base := &m.base[len(m.base)-1]
		rec.Base.PeekLine(l.addr, &base.Data)
		if base.Data == *data {
			m.base = m.base[:len(m.base)-1]
			continue
		}
		m.overlay = append(m.overlay, LineWrite{Addr: l.addr, Data: *data})
		m.canon = binary.LittleEndian.AppendUint64(m.canon, l.addr)
		m.canon = append(m.canon, data[:]...)
	}
	return Image{Survivors: survivors, Overlay: m.overlay, Hash: sha256.Sum256(m.canon)}
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
