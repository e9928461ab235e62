package seq

// Classifier implements super scalar sample sort partitioning [32]: the
// sorted splitters are arranged into an implicit perfect binary search
// tree (in array layout, root at index 1) so that classifying an element
// is a branch-free descent of ⌈log₂(m+1)⌉ levels. Padding duplicates the
// largest splitter, and resulting over-counted buckets are clamped.
//
// Bucket semantics: Bucket(x) = |{i : splitters[i] ≤ x}|, so bucket i
// holds exactly the x with splitters[i-1] ≤ x < splitters[i] (bucket 0:
// x < splitters[0]; bucket m: x ≥ splitters[m-1]).
type Classifier[E any] struct {
	tree      []E // 1-indexed; tree[0] unused
	splitters []E
	levels    int
	less      func(a, b E) bool
}

// NewClassifier builds a classifier from sorted splitters. At least one
// splitter is required.
func NewClassifier[E any](splitters []E, less func(a, b E) bool) *Classifier[E] {
	if len(splitters) == 0 {
		panic("seq: NewClassifier with no splitters")
	}
	tree, levels := implicitTree(splitters)
	return &Classifier[E]{tree: tree, splitters: splitters, levels: levels, less: less}
}

// implicitTree lays sorted splitters out as the implicit perfect search
// tree of Classifier and PrefixClassifier (1-indexed, tree[0] unused):
// the padded splitter sequence is assigned in-order — padding repeats
// the largest splitter — so that the descent "go right iff x ≥
// tree[node]" computes the rank in exactly levels steps.
func implicitTree[T any](splitters []T) (tree []T, levels int) {
	m := len(splitters)
	size := 1
	for size-1 < m {
		size <<= 1
		levels++
	}
	tree = make([]T, size)
	idx := 0
	var assign func(node int)
	assign = func(node int) {
		if node >= size {
			return
		}
		assign(2 * node)
		tree[node] = splitters[min(idx, m-1)]
		idx++
		assign(2*node + 1)
	}
	assign(1)
	return tree, levels
}

// NumBuckets returns the number of range buckets (m+1).
func (c *Classifier[E]) NumBuckets() int { return len(c.splitters) + 1 }

// Levels returns the number of tree levels descended per element.
func (c *Classifier[E]) Levels() int { return c.levels }

// Bucket classifies x into 0..m.
func (c *Classifier[E]) Bucket(x E) int {
	node := 1
	size := len(c.tree)
	for node < size {
		if c.less(x, c.tree[node]) {
			node = 2 * node
		} else {
			node = 2*node + 1
		}
	}
	b := node - size
	if m := len(c.splitters); b > m {
		// x ≥ max splitter walked past padding duplicates.
		b = m
	}
	return b
}

// MaxInPlaceBuckets is the largest bucket count PartitionInPlace
// accepts (its id scratch is uint16).
const MaxInPlaceBuckets = 1 << 16

// PartitionInPlace reorders data in place into bucket-contiguous layout
// according to bucketOf (values in 0..nb-1, nb ≤ MaxInPlaceBuckets) and
// returns the bucket boundaries: bucket b occupies
// data[bounds[b]:bounds[b+1]]. It allocates no second element array:
// the first pass classifies every element once (in input order, so
// stateful bucketOf closures see the original positions) into the ids
// scratch, and an American-flag cycle walk then moves elements into
// their buckets — O(n) moves, not stable. ids is grown as needed and
// returned for reuse across calls (pass nil the first time).
func PartitionInPlace[E any](data []E, nb int, bucketOf func(E) int, ids []uint16) (bounds []int, idsOut []uint16) {
	if nb > MaxInPlaceBuckets {
		panic("seq: PartitionInPlace bucket count exceeds MaxInPlaceBuckets")
	}
	n := len(data)
	if len(ids) < n {
		ids = make([]uint16, n)
	}
	for i, x := range data {
		ids[i] = uint16(bucketOf(x))
	}
	return PartitionInPlaceIDs(data, nb, ids[:n]), ids
}

// PartitionInPlaceIDs is the reorder half of PartitionInPlace for
// callers that fill the id scratch themselves (the prefix-classification
// loops, which inline the splitter-tree descent): ids[i] must hold the
// bucket of data[i]. The American-flag walk carries the displaced
// element and its id in locals along each cycle, so a step loads the
// target slot's element and id and stores one element — never writing
// ids back. Not stable; ids holds unspecified contents afterwards.
func PartitionInPlaceIDs[E any](data []E, nb int, ids []uint16) (bounds []int) {
	counts := make([]int, nb+1)
	for _, b := range ids {
		counts[b+1]++
	}
	for b := 1; b <= nb; b++ {
		counts[b] += counts[b-1]
	}
	bounds = counts
	// next[b] = first unplaced position of bucket b.
	next := make([]int, nb)
	copy(next, bounds[:nb])
	for b := 0; b < nb; b++ {
		for i := next[b]; i < bounds[b+1]; i = next[b] {
			id := int(ids[i])
			if id != b {
				// Slot i is a hole: carry its element to the next free
				// slot of its bucket, pick up what sat there, and repeat
				// until the carried element belongs to bucket b.
				x := data[i]
				for id != b {
					j := next[id]
					next[id] = j + 1
					x, data[j] = data[j], x
					id = int(ids[j])
				}
				data[i] = x
			}
			next[b] = i + 1
		}
	}
	return bounds
}

// ClassifyOps returns the modeled branchless-partition operation count
// for classifying n elements with the given classifier tree depth:
// n·levels element-steps.
func ClassifyOps(n int64, levels int) int64 {
	return n * int64(levels)
}
