package crashmc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bbb/internal/memory"
)

// FuzzParseWitness feeds arbitrary bytes to the witness parser. The rule
// for every on-disk format: it either returns an error or yields a witness
// that round-trips through its JSON encoding — re-parsing the encoding
// gives the same witness, and re-encoding that gives the same bytes — and
// it never panics. The seed corpus (testdata/fuzz/FuzzParseWitness) holds
// real PMEM and BEP witnesses plus truncated and schema-skewed variants;
// it runs as a normal test, and `go test -fuzz FuzzParseWitness` explores
// further.
func FuzzParseWitness(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ParseWitness(data)
		if err != nil {
			if w != nil {
				t.Fatalf("ParseWitness returned a witness along with error %v", err)
			}
			return
		}
		enc, err := w.MarshalIndent()
		if err != nil {
			t.Fatalf("parsed witness does not encode: %v", err)
		}
		again, err := ParseWitness(enc)
		if err != nil {
			t.Fatalf("encoded witness does not parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("witness changed across a JSON round trip:\n got: %+v\nwant: %+v", again, w)
		}
		if enc2, err := again.MarshalIndent(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("witness encoding is not stable (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}

// FuzzEnumerate checks Enumerate differentially against refEnumerate, the
// enumerator this package used before the line table: sort each set's
// lines, read the base bytes from memory, hash every set's image and
// dedupe by hash, with map-deduped epoch subsets. fuzzRecord decodes the
// input into a small record whose writes repeat values, equal the base
// image and overwrite each other, so every dedupe case occurs. The two
// must agree on the set counts and on every image — order, survivors,
// overlay and hash — and a fresh scratch's resolver must rebuild each
// image's overlay from its survivors alone. The images come from a scratch
// that has just enumerated another record — the input's bytes reversed, so
// other bounds, lines and table sizes — and must not see any of its state.
// The seed corpus (testdata/fuzz/FuzzEnumerate) runs as a normal test.
func FuzzEnumerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prev := slices.Clone(data)
		slices.Reverse(prev)
		var s scratch
		s.enumerate(fuzzRecord(prev))
		rec, b := fuzzRecord(data)
		got, want := s.enumerate(rec, b), refEnumerate(rec, b)
		if got.Sets != want.Sets || got.SetsSkipped != want.SetsSkipped {
			t.Fatalf("sets %d skipped %d, want %d and %d", got.Sets, got.SetsSkipped, want.Sets, want.SetsSkipped)
		}
		if len(got.Images) != len(want.Images) {
			t.Fatalf("%d images, want %d", len(got.Images), len(want.Images))
		}
		for i, img := range want.Images {
			if !reflect.DeepEqual(got.Images[i], img) {
				t.Fatalf("image %d:\n got %+v\nwant %+v", i, got.Images[i], img)
			}
			if m := resolveImage(rec, img.Survivors); !reflect.DeepEqual(m.Overlay, img.Overlay) {
				t.Fatalf("resolving %v gives overlay %+v, want %+v", img.Survivors, m.Overlay, img.Overlay)
			}
		}
	})
}

// TestDistinctRecordSkipsKeySet streams the FuzzEnumerate seeds whose
// writes each have a line of their own and bytes unlike the base — free
// writes within and past the exhaustive limit, and epoch writes of two
// cores beside a free one — and requires the enumeration to skip the
// dedupe key set and still give the reference enumerator's result. A
// write on a shared line, or of the base bytes, keeps the key set.
func TestDistinctRecordSkipsKeySet(t *testing.T) {
	for _, data := range [][]byte{
		{0x0b, 0x04, 0x09, 0x0e, 0x07}, // free-distinct
		{0x01, 0x04, 0x09, 0x0e, 0x07}, // free-distinct-bounded
		{0x0b, 0x14, 0x59, 0x3e, 0x07}, // epoch-distinct
	} {
		rec, b := fuzzRecord(data)
		var s scratch
		got := s.enumerate(rec, b)
		if !s.table.distinct() || s.seen.n != 0 {
			t.Fatalf("%x: distinct %v, %d keys in the key set: want the key set skipped", data, s.table.distinct(), s.seen.n)
		}
		if want := refEnumerate(rec, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%x: %d sets, %d images; the reference gives %d and %d (or the images differ)",
				data, got.Sets, len(got.Images), want.Sets, len(want.Images))
		}
	}
	for _, data := range [][]byte{
		{0x0b, 0x04, 0x09, 0x0e, 0x03}, // line 3 written with its base bytes
		{0x0b, 0x04, 0x09, 0x0e, 0x0a}, // line 2 written twice
	} {
		rec, _ := fuzzRecord(data)
		var t0 lineTable
		if t0.reset(rec); t0.distinct() {
			t.Fatalf("%x: the table claims distinct sets give distinct images", data)
		}
	}
}

// fuzzRecord decodes data into a record and bounds. data[0] picks the
// bounds; each later byte, up to 12, is one pending write:
//
//	bits 0-1  line (4 lines; line 0's base bytes are zero)
//	bits 2-3  data: the line's base bytes, A, B, B
//	bit  4    class: free or epoch
//	bit  5    core (epoch writes)
//	bit  6    epoch writes: move the core to its next epoch (at most 3)
func fuzzRecord(data []byte) (*Record, Bounds) {
	var b Bounds
	if len(data) > 0 {
		x := data[0]
		b.ExhaustiveLimit = 1 + int(x%12)
		b.MaxFlips = 1 + int(x>>4)%3
		if k := x >> 6; k > 0 {
			b.MaxImages = 4 << (2 * k)
		}
		data = data[1:]
	}
	rec := testRecord(nil)
	var base [4][memory.LineSize]byte
	for l := 1; l < len(base); l++ {
		for i := range base[l] {
			base[l][i] = byte(16*l + i)
		}
		rec.Base.WriteLine(addr(l), &base[l])
	}
	vals := [4][memory.LineSize]byte{{}, lineData(0xA), lineData(0xB), lineData(0xB)}
	epoch := [2]uint64{1, 1}
	for i, w := range data[:min(len(data), 12)] {
		l := int(w & 3)
		pw := PendingWrite{Addr: addr(l), Data: vals[w>>2&3], Class: ClassFree, Core: -1, Seq: i}
		if w>>2&3 == 0 {
			pw.Data = base[l]
		}
		if w>>4&1 == 1 {
			c := int(w >> 5 & 1)
			if w>>6&1 == 1 {
				epoch[c] = min(epoch[c]+1, 3)
			}
			pw.Class, pw.Core, pw.Epoch = ClassEpoch, c, epoch[c]
		}
		rec.Pending = append(rec.Pending, pw)
	}
	return rec, b
}

// refEnumerate is the reference enumerator: every survival set resolved by
// sorting its lines and peeking the base image, hashed, and deduped by
// hash.
func refEnumerate(rec *Record, b Bounds) Enumeration {
	b = b.withDefaults()
	groups, total := refSurvivalGroups(rec, b)
	var (
		enum Enumeration
		seen = map[[32]byte]bool{}
		pick = make([]int, len(groups))
		set  = make([]int, 0, len(rec.Pending))
	)
	for {
		set = set[:0]
		for gi, g := range groups {
			set = append(set, g[pick[gi]]...)
		}
		slices.Sort(set)
		enum.Sets++
		if img := refImage(rec, set); !seen[img.Hash] {
			seen[img.Hash] = true
			enum.Images = append(enum.Images, img.clone())
		}
		if enum.Sets >= b.MaxImages {
			break
		}
		i := len(groups) - 1
		for ; i >= 0; i-- {
			if pick[i]++; pick[i] < len(groups[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			break
		}
	}
	if total > uint64(enum.Sets) {
		enum.SetsSkipped = total - uint64(enum.Sets)
	}
	return enum
}

func refSurvivalGroups(rec *Record, b Bounds) ([][][]int, uint64) {
	var (
		free      []int
		perCore   = map[int][]int{}
		coreOrder []int
	)
	for i, w := range rec.Pending {
		if w.Class == ClassFree {
			free = append(free, i)
			continue
		}
		if _, ok := perCore[w.Core]; !ok {
			coreOrder = append(coreOrder, w.Core)
		}
		perCore[w.Core] = append(perCore[w.Core], i)
	}
	var groups [][][]int
	total := uint64(1)
	if len(free) > 0 {
		groups = append(groups, refBoundedSubsets(free, b))
		total = satMul(total, satPow2(len(free)))
	}
	for _, c := range coreOrder {
		groups = append(groups, refEpochSubsets(rec, perCore[c], b))
		total = satMul(total, epochSpaceSize(rec, perCore[c]))
	}
	if len(groups) == 0 {
		groups = append(groups, [][]int{{}})
	}
	return groups, total
}

func refBoundedSubsets(idx []int, b Bounds) [][]int {
	n := len(idx)
	var out [][]int
	if n <= b.ExhaustiveLimit {
		for mask := 0; mask < 1<<n; mask++ {
			var s []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					s = append(s, idx[i])
				}
			}
			out = append(out, s)
		}
		sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
		return out
	}
	for k := 0; k <= n; k++ {
		if k <= b.MaxFlips || k >= n-b.MaxFlips {
			out = append(out, refCombinations(idx, k)...)
		}
	}
	return out
}

// refCombinations returns every k-of-idx combination in lexicographic
// order.
func refCombinations(idx []int, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for i := 0; i+k <= len(idx); i++ {
		for _, rest := range refCombinations(idx[i+1:], k-1) {
			out = append(out, append([]int{idx[i]}, rest...))
		}
	}
	return out
}

func refEpochSubsets(rec *Record, idx []int, b Bounds) [][]int {
	var (
		epochs [][]int
		last   uint64
	)
	for _, i := range idx {
		if e := rec.Pending[i].Epoch; len(epochs) == 0 || e != last {
			epochs = append(epochs, nil)
			last = e
		}
		epochs[len(epochs)-1] = append(epochs[len(epochs)-1], i)
	}
	var (
		out    [][]int
		seen   = map[string]bool{}
		prefix []int
	)
	add := func(s []int) {
		if key := fmt.Sprint(s); !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	add(nil)
	for _, frontier := range epochs {
		for _, fs := range refBoundedSubsets(frontier, b) {
			add(append(slices.Clone(prefix), fs...))
		}
		prefix = append(prefix, frontier...)
	}
	return out
}

// refImage resolves a survival set: survivors apply in Seq order, lines
// whose final bytes equal the base image drop out, and the rest hash in
// address order.
func refImage(rec *Record, survivors []int) Image {
	final := map[memory.Addr]int{}
	for _, i := range survivors {
		final[rec.Pending[i].Addr] = i
	}
	addrs := slices.Sorted(maps.Keys(final))
	img := Image{Survivors: survivors}
	var canon []byte
	for _, a := range addrs {
		var base [memory.LineSize]byte
		rec.Base.PeekLine(a, &base)
		data := rec.Pending[final[a]].Data
		if data == base {
			continue
		}
		img.Overlay = append(img.Overlay, LineWrite{Addr: a, Data: data})
		canon = binary.LittleEndian.AppendUint64(canon, a)
		canon = append(canon, data[:]...)
	}
	img.Hash = sha256.Sum256(canon)
	return img
}
