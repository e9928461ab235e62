package seq

import (
	"math"
	"unsafe"
)

// This file holds the comparator path's prefix-cached kernels. A prefix
// hook maps each element to a uint64 that embeds a coarsening of the
// element order (DESIGN.md §11):
//
//	less(a, b)            ⇒  prefix(a) ≤ prefix(b), and
//	prefix(a) < prefix(b) ⇒  less(a, b)
//
// Equivalently: comparing prefixes first and falling back to less only
// on equal prefixes decides every pair exactly like less does. Unlike
// the Config.Key contract the hook need not be injective — ties are
// allowed, and the kernels fall back to the comparator only inside
// equal-prefix runs. The two-sided form also pins the tie structure:
// elements the comparator cannot tell apart always share a prefix, so a
// prefix kernel and a stable comparator kernel produce byte-identical
// output (the conformance and torture suites assert this continuously).

// ExtractPrefixes appends data's prefixes to dst and returns it — the
// sidecar-building pass. Callers recycle dst across levels like the
// other scratch arenas (pass a zero-length slice of retained capacity).
func ExtractPrefixes[E any](dst []uint64, data []E, prefix func(E) uint64) []uint64 {
	for _, e := range data {
		dst = append(dst, prefix(e))
	}
	return dst
}

// prefixPair carries one element's cached prefix and its original
// position through the radix passes of SortPrefixed, so the payload
// elements are permuted once at the end instead of once per pass.
type prefixPair struct {
	p  uint64
	id uint32
}

// pfxElem carries one element's cached prefix and its payload together
// through the radix passes of the word-sized strategy: one 16-byte
// record means each scatter touches a single random cache line — the
// same line count per pass as the keyed radix — and the payload is
// already in place when the passes end (no gather).
type pfxElem[E any] struct {
	p uint64
	e E
}

// PrefixScratch is the reusable scratch of SortPrefixed: the radix
// ping-pong buffers of whichever strategy runs ((prefix, id) pairs or
// word-sized (prefix, payload) records) and the pair path's gather
// buffer. The zero value is ready; buffers grow as needed and are
// retained across calls.
type PrefixScratch[E any] struct {
	pairs, spare []prefixPair
	kv, kvSpare  []pfxElem[E]
	elems        []E
}

// Donate offers buf as the payload scratch, kept when it beats the
// current one — callers hand over a retired arena buffer so the next
// SortPrefixed skips an allocation (and its zeroing) of that size.
func (sc *PrefixScratch[E]) Donate(buf []E) {
	if cap(buf) > cap(sc.elems) {
		sc.elems = buf[:cap(buf)]
	}
}

// prefixInsertionCutoff is the size below which SortPrefixed switches
// to a stable insertion sort on the combined (prefix, less) order.
const prefixInsertionCutoff = 48

// SortPrefixed sorts data by less using the cached prefixes pfx (where
// pfx[i] must be the prefix of data[i], under the contract above): a
// stable LSD radix sort on (prefix, id) pairs — trivial digit passes
// skipped — permutes the payloads once, and the comparator is invoked
// only to sort within equal-prefix runs. The result is exactly the
// stable-by-less order (what SortStable produces), because the radix is
// stable and less-ties never straddle a prefix boundary. pfx is
// consumed (it ends up permuted alongside data).
func SortPrefixed[E any](data []E, pfx []uint64, less func(a, b E) bool, sc *PrefixScratch[E]) {
	n := len(data)
	if n != len(pfx) {
		panic("seq: SortPrefixed sidecar length does not match the data")
	}
	if n < 2 {
		return
	}
	if n <= prefixInsertionCutoff {
		insertionPrefixed(data, pfx, less)
		return
	}
	if n > math.MaxUint32 {
		panic("seq: SortPrefixed supports at most 2^32 elements per PE")
	}

	var h KeyedHist
	h.n = n
	for _, k := range pfx {
		h.hist[0][k&0xff]++
		h.hist[1][(k>>8)&0xff]++
		h.hist[2][(k>>16)&0xff]++
		h.hist[3][(k>>24)&0xff]++
		h.hist[4][(k>>32)&0xff]++
		h.hist[5][(k>>40)&0xff]++
		h.hist[6][(k>>48)&0xff]++
		h.hist[7][(k>>56)&0xff]++
	}
	if unsafe.Sizeof(*new(E)) <= 8 {
		// Word-sized payloads: ping-pong (prefix, payload) in lockstep.
		// Each pass moves the same 16 bytes per element as a pair pass,
		// but the pair build, the final random-access gather, and the
		// copy-back all disappear — exactly the costs that kept the
		// uint64 prefix path behind the keyed radix.
		sortPrefixedLockstep(data, pfx, sc, &h)
	} else {
		sortPrefixedPairs(data, pfx, sc, &h)
	}
	// Hand each equal-prefix run to the comparator (stable, so ties keep
	// their radix-preserved original order).
	for i := 0; i < n; {
		j := i + 1
		for j < n && pfx[j] == pfx[i] {
			j++
		}
		if j-i > 1 {
			SortStable(data[i:j], less)
		}
		i = j
	}
}

// sortPrefixedPairs is SortPrefixed's radix for wide payloads: the
// stable LSD passes move (prefix, id) pairs, and the payloads are
// permuted once at the end along the sorted ids. data and pfx come out
// in prefix order.
func sortPrefixedPairs[E any](data []E, pfx []uint64, sc *PrefixScratch[E], h *KeyedHist) {
	n := len(data)
	if len(sc.pairs) < n {
		sc.pairs = make([]prefixPair, n)
	}
	if len(sc.spare) < n {
		sc.spare = make([]prefixPair, n)
	}
	src, dst := sc.pairs[:n], sc.spare[:n]
	for i, k := range pfx {
		src[i] = prefixPair{p: k, id: uint32(i)}
	}
	var starts [256]int
	for pass := 0; pass < 8; pass++ {
		if !h.digitStarts(pass, &starts) {
			continue
		}
		shift := uint(8 * pass)
		for _, pr := range src {
			b := (pr.p >> shift) & 0xff
			dst[starts[b]] = pr
			starts[b]++
		}
		src, dst = dst, src
	}
	sc.pairs, sc.spare = src, dst
	if len(sc.elems) < n {
		sc.elems = make([]E, n)
	}
	elems := sc.elems[:n]
	for k, pr := range src {
		elems[k] = data[pr.id]
		pfx[k] = pr.p
	}
	copy(data, elems)
}

// sortPrefixedLockstep is SortPrefixed's radix for word-sized payloads:
// the stable LSD passes distribute (prefix, payload) records, so the
// sorted payloads materialize with the passes and the unpack at the end
// is sequential — no id indirection and no random-access gather. data
// and pfx come out in prefix order.
func sortPrefixedLockstep[E any](data []E, pfx []uint64, sc *PrefixScratch[E], h *KeyedHist) {
	n := len(data)
	if len(sc.kv) < n {
		sc.kv = make([]pfxElem[E], n)
	}
	if len(sc.kvSpare) < n {
		sc.kvSpare = make([]pfxElem[E], n)
	}
	src, dst := sc.kv[:n], sc.kvSpare[:n]
	for i, k := range pfx {
		src[i] = pfxElem[E]{p: k, e: data[i]}
	}
	var starts [256]int
	for pass := 0; pass < 8; pass++ {
		if !h.digitStarts(pass, &starts) {
			continue
		}
		shift := uint(8 * pass)
		for _, pr := range src {
			b := (pr.p >> shift) & 0xff
			dst[starts[b]] = pr
			starts[b]++
		}
		src, dst = dst, src
	}
	sc.kv, sc.kvSpare = src, dst
	for i, pr := range src {
		data[i], pfx[i] = pr.e, pr.p
	}
}

// insertionPrefixed is the stable small-input sort of SortPrefixed: an
// insertion sort on the combined (prefix, less) order, moving the
// sidecar alongside the payloads.
func insertionPrefixed[E any](data []E, pfx []uint64, less func(a, b E) bool) {
	for i := 1; i < len(data); i++ {
		e, k := data[i], pfx[i]
		j := i
		for j > 0 && (pfx[j-1] > k || (pfx[j-1] == k && less(e, data[j-1]))) {
			data[j] = data[j-1]
			pfx[j] = pfx[j-1]
			j--
		}
		data[j], pfx[j] = e, k
	}
}

// SortPrefixedOps returns the modeled operation count of a prefix-
// cached sort of n elements: ~11n element-steps (extraction + histogram
// + up to 8 pair scatters + one payload gather, counted flat like
// SortKeyedOps; the rare within-run comparator work is absorbed in the
// constant).
func SortPrefixedOps(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return 11 * n
}

// PrefixClassifier is the uint64 specialization of Classifier: the same
// implicit-tree branchless descent, built over the splitters' prefixes
// (or keys: KeyedClassifier), on raw word compares instead of per-level
// calls through a generic less closure. Because prefixes need not be
// injective, an element whose prefix equals some splitter prefix cannot
// be placed by the descent alone — the caller resolves it over the run
// of equal-prefix splitters (ClassifyPrefixed's fallback). Everything
// else never touches the comparator: under the prefix contract, a
// strict prefix inequality decides the element order.
type PrefixClassifier struct {
	tree     []uint64 // 1-indexed; tree[0] unused
	spfx     []uint64 // sorted splitter prefixes
	runStart []int32  // runStart[i] = first index of spfx's equal-prefix run containing i
	levels   int
}

// NewPrefixClassifier builds a classifier from the prefixes of sorted
// splitters (non-decreasing, since the splitters are sorted and the
// hook is order-preserving). At least one splitter is required.
func NewPrefixClassifier(spfx []uint64) *PrefixClassifier {
	m := len(spfx)
	if m == 0 {
		panic("seq: NewPrefixClassifier with no splitters")
	}
	c := &PrefixClassifier{spfx: spfx, runStart: make([]int32, m)}
	c.tree, c.levels = implicitTree(spfx)
	for i := 1; i < m; i++ {
		if spfx[i] == spfx[i-1] {
			c.runStart[i] = c.runStart[i-1]
		} else {
			c.runStart[i] = int32(i)
		}
	}
	return c
}

// NumBuckets returns the number of range buckets (m+1).
func (c *PrefixClassifier) NumBuckets() int { return len(c.spfx) + 1 }

// Levels returns the number of tree levels descended per element.
func (c *PrefixClassifier) Levels() int { return c.levels }

// bucket is the raw descent: |{i : spfx[i] ≤ k}|.
func (c *PrefixClassifier) bucket(k uint64) int {
	node := 1
	for l := 0; l < c.levels; l++ {
		node = step(c.tree, node, k)
	}
	b := node - len(c.tree)
	if m := len(c.spfx); b > m {
		b = m
	}
	return b
}

// step is one branchless tree-descent level: go right iff k ≥ the
// node's splitter (compiles to a flag-set, not a branch, so random
// keys cost no mispredictions).
func step(tree []uint64, n int, k uint64) int {
	ge := 0
	if k >= tree[n] {
		ge = 1
	}
	return 2*n + ge
}

// ClassifyPrefixed fills ids[i] with the bucket of data[i], descending
// on its prefix. Elements whose prefix collides with a splitter prefix
// — the only ones whose bucket the descent cannot decide — are resolved
// by fallback(i, lo, hi), which receives the index range [lo, hi) of
// the splitters sharing the element's prefix and returns the element's
// bucket in 0..m (typically a comparator binary search over that run,
// plus tie-breaking). fallback sees the positions i in increasing
// order. ids must have len(data) capacity.
//
// The tree is perfect (padded to a power of two), so every descent
// takes exactly Levels steps; four elements descend in lockstep so the
// four independent compare chains overlap in flight — the super scalar
// sample sort argument (paper §2.2), here applied for real rather than
// only in the cost model.
func ClassifyPrefixed[E any](data []E, prefix func(E) uint64, pc *PrefixClassifier, ids []uint16, fallback func(i, lo, hi int) int) {
	tree, levels := pc.tree, pc.levels
	size, m := len(tree), len(pc.spfx)
	spfx, runStart := pc.spfx, pc.runStart
	n := len(data)
	resolve := func(i int, k uint64, b int) uint16 {
		if b > 0 && spfx[b-1] == k {
			// spfx is sorted, so every splitter with this prefix sits in
			// one run ending at b (the descent counted all of them ≤ k).
			return uint16(fallback(i, int(runStart[b-1]), b))
		}
		return uint16(b)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		k0, k1, k2, k3 := prefix(data[i]), prefix(data[i+1]), prefix(data[i+2]), prefix(data[i+3])
		n0, n1, n2, n3 := 1, 1, 1, 1
		for l := 0; l < levels; l++ {
			n0 = step(tree, n0, k0)
			n1 = step(tree, n1, k1)
			n2 = step(tree, n2, k2)
			n3 = step(tree, n3, k3)
		}
		ids[i] = resolve(i, k0, min(n0-size, m))
		ids[i+1] = resolve(i+1, k1, min(n1-size, m))
		ids[i+2] = resolve(i+2, k2, min(n2-size, m))
		ids[i+3] = resolve(i+3, k3, min(n3-size, m))
	}
	for ; i < n; i++ {
		k := prefix(data[i])
		ids[i] = resolve(i, k, pc.bucket(k))
	}
}
