package seq

import "slices"

// Sort sorts data by less with the standard library's generic pdqsort
// (slices.SortFunc): pattern-defeating quicksort with heapsort fallback
// and adaptive runs. Compared to the interface-based sort.Slice it
// avoids the reflect-built swapper and the closure-per-call-site
// indirection, which is worth ~2x on scalar elements. Not stable.
func Sort[E any](data []E, less func(a, b E) bool) {
	slices.SortFunc(data, func(a, b E) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

// SortStable sorts data by less with the standard library's stable sort
// (slices.SortStableFunc: insertion-sorted blocks + in-place symmerge).
// The comparator sorters feed their merge levels with it: a stable
// local order is what makes the prefix-cached kernels (SortPrefixed,
// MultiwayPrefixedInto) byte-identical to the plain comparator path
// even on elements the comparator cannot tell apart.
func SortStable[E any](data []E, less func(a, b E) bool) {
	slices.SortStableFunc(data, func(a, b E) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

// SortKeyed sorts data ascending by the uint64 key with least-
// significant-digit radix sort (8-bit digits, up to 8 counting passes;
// passes whose digit is constant across the input are skipped). The
// sort is stable on equal keys. It is only a correct replacement for a
// comparator sort when the key embeds the full order:
//
//	less(a, b) == (key(a) < key(b))  for all a, b
//
// which is what Config.Key promises. scratch is the ping-pong buffer;
// it is grown as needed and returned so callers can reuse it across
// calls (pass nil the first time).
func SortKeyed[E any](data []E, key func(E) uint64, scratch []E) []E {
	n := len(data)
	if n < 2 {
		return scratch
	}
	if n < 64 {
		// Counting passes cost ~8·256 slots of setup; insertion-by-key
		// wins on tiny inputs (stable, like the radix path).
		insertionByKey(data, key)
		return scratch
	}
	var h KeyedHist
	HistKeyed(data, key, &h)
	sorted, spare := SortKeyedHist(data, key, scratch, &h)
	if len(sorted) > 0 && len(data) > 0 && &sorted[0] != &data[0] {
		copy(data, sorted)
		return sorted // data holds the result; the radix buffer is the reusable scratch
	}
	return spare
}

// KeyedHist accumulates the per-digit histograms of the LSD radix sort.
// The byte distribution is permutation-invariant, so histograms built
// incrementally — e.g. per received chunk, while the bulk exchange is
// still streaming in — stay valid for every pass regardless of the
// order the data was appended in.
type KeyedHist struct {
	hist [8][256]int
	n    int
}

// HistKeyed folds data's keys into the histograms, one run of equal
// keys at a time: one compare per element, and the eight digit counts
// of a run are bumped once by its length. No run state survives the
// call, so chunked calls add up to the histogram of the concatenation.
func HistKeyed[E any](data []E, key func(E) uint64, h *KeyedHist) {
	h.n += len(data)
	if len(data) == 0 {
		return
	}
	k, c := key(data[0]), 0
	for _, e := range data {
		x := key(e)
		if x == k {
			c++
			continue
		}
		h.hist[0][k&0xff] += c
		h.hist[1][(k>>8)&0xff] += c
		h.hist[2][(k>>16)&0xff] += c
		h.hist[3][(k>>24)&0xff] += c
		h.hist[4][(k>>32)&0xff] += c
		h.hist[5][(k>>40)&0xff] += c
		h.hist[6][(k>>48)&0xff] += c
		h.hist[7][(k>>56)&0xff] += c
		k, c = x, 1
	}
	for d := range h.hist { // the last run
		h.hist[d][(k>>(8*d))&0xff] += c
	}
}

// digitStarts is the one pass planner of the LSD radix kernels: it
// fills starts with the scatter offset of every value of digit pass and
// reports false when that digit is constant across all h.n elements,
// so the pass can be skipped.
func (h *KeyedHist) digitStarts(pass int, starts *[256]int) bool {
	sum := 0
	for b, c := range &h.hist[pass] {
		if c == h.n {
			return false
		}
		starts[b] = sum
		sum += c
	}
	return true
}

// SortKeyedHist runs the scatter passes of the stable LSD radix sort
// with histograms accumulated up front (HistKeyed over exactly data's
// elements, in any order). It returns the buffer holding the sorted
// result — data or scratch, whichever the last active pass landed in —
// together with the other (spare) buffer, so callers that own both
// avoid the copy-back of SortKeyed. scratch is grown as needed; h is
// consumed.
func SortKeyedHist[E any](data []E, key func(E) uint64, scratch []E, h *KeyedHist) (sorted, spare []E) {
	n := len(data)
	if h.n != n {
		panic("seq: SortKeyedHist histogram count does not match the data")
	}
	if n < 2 {
		return data, scratch
	}
	if len(scratch) < n {
		scratch = make([]E, n)
	}
	src, dst := data, scratch[:n]
	var starts [256]int
	for pass := 0; pass < 8; pass++ {
		// Skip passes whose digit is constant (common for small key
		// ranges: sorted/dup-heavy workloads need 1-2 passes).
		if !h.digitStarts(pass, &starts) {
			continue
		}
		shift := uint(8 * pass)
		for _, e := range src {
			b := (key(e) >> shift) & 0xff
			dst[starts[b]] = e
			starts[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// SortKeyedOps returns the modeled operation count of a radix sort of n
// elements: 9n element-steps (one histogram pass + up to 8 scatter
// passes, counted as a constant ~8 effective).
func SortKeyedOps(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return 9 * n
}

// insertionByKey is the stable small-input sort shared by the radix
// kernels.
func insertionByKey[E any](data []E, key func(E) uint64) {
	for i := 1; i < len(data); i++ {
		e, k := data[i], key(data[i])
		j := i
		for j > 0 && key(data[j-1]) > k {
			data[j] = data[j-1]
			j--
		}
		data[j] = e
	}
}

// msdCutoff is the segment size below which the in-place radix descent
// switches to insertion sort.
const msdCutoff = 64

// SortKeyedInPlace sorts data ascending by the uint64 key with an
// in-place MSD radix sort: an American-flag cycle walk per 8-bit digit
// (like PartitionInPlace, but with the digit as the bucket) recursing
// into the 256 sub-segments, with insertion sort below 64 elements. It
// allocates nothing — the kernel the sorters' hot paths use, where the
// LSD variant's full-size ping-pong scratch would be the largest
// allocation of a level. Deterministic but NOT stable on equal keys
// (irrelevant under the Config.Key contract, which makes equal-key
// elements order-indistinguishable; use SortKeyed where stability
// matters). Same key contract as SortKeyed:
//
//	less(a, b) == (key(a) < key(b))  for all a, b
func SortKeyedInPlace[E any](data []E, key func(E) uint64) {
	msdRadix(data, key, 56)
}

func msdRadix[E any](data []E, key func(E) uint64, shift uint) {
	n := len(data)
	if n <= msdCutoff {
		if n > 1 {
			insertionByKey(data, key)
		}
		return
	}
	var counts [256]int
	for _, e := range data {
		counts[(key(e)>>shift)&0xff]++
	}
	var bounds [257]int
	single := -1
	for b := 0; b < 256; b++ {
		bounds[b+1] = bounds[b] + counts[b]
		if counts[b] == n {
			single = b
		}
	}
	if single < 0 {
		// American-flag walk: swap every element into its digit's
		// segment; each swap finalizes one element, so the walk is O(n).
		next := bounds
		for b := 0; b < 256; b++ {
			for i := next[b]; i < bounds[b+1]; i = next[b] {
				v := int((key(data[i]) >> shift) & 0xff)
				if v == b {
					next[b] = i + 1
					continue
				}
				j := next[v]
				next[v] = j + 1
				data[i], data[j] = data[j], data[i]
			}
		}
	}
	if shift == 0 {
		return
	}
	if single >= 0 {
		// Constant digit: descend without the walk.
		msdRadix(data, key, shift-8)
		return
	}
	for b := 0; b < 256; b++ {
		if seg := data[bounds[b]:bounds[b+1]]; len(seg) > 1 {
			msdRadix(seg, key, shift-8)
		}
	}
}
