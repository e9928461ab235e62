// Package seq provides the sequential kernels the parallel sorters are
// built from (paper §2.2): loser-tree (tournament-tree) multiway merging
// [20, 27, 33], super scalar sample sort partitioning [32], and binary
// searches over sorted runs.
package seq

// Multiway merges k sorted runs into one sorted slice using a loser tree
// (tournament tree), performing O(N log k) comparisons for N total
// elements. The merge is stable across runs: on equal keys, elements from
// runs with smaller indices come first, so merging locally sorted
// subarrays preserves a global stable order.
func Multiway[E any](runs [][]E, less func(a, b E) bool) []E {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	return MultiwayInto(make([]E, 0, total), runs, less)
}

// MultiwayInto is Multiway appending into out (pass a recycled buffer
// truncated to length 0; it is grown if its capacity is short). out
// must not alias any run.
func MultiwayInto[E any](out []E, runs [][]E, less func(a, b E) bool) []E {
	return multiway(out, runs, nil, less)
}

// MultiwayPrefixedInto is MultiwayInto with cached prefixes: pfx[r][i]
// must be the prefix of runs[r][i]. The loser tree compares uint64
// prefixes and calls less only on prefix ties, deciding every match
// exactly like MultiwayInto under the prefix contract — the output is
// byte-identical. A nil pfx is a plain comparator merge (MultiwayInto).
// out must not alias any run.
func MultiwayPrefixedInto[E any](out []E, runs [][]E, pfx [][]uint64, less func(a, b E) bool) []E {
	if pfx != nil {
		if len(pfx) != len(runs) {
			panic("seq: MultiwayPrefixedInto sidecar count does not match the runs")
		}
		for r := range runs {
			if len(pfx[r]) != len(runs[r]) {
				panic("seq: MultiwayPrefixedInto sidecar length does not match its run")
			}
		}
	}
	return multiway(out, runs, pfx, less)
}

// multiway is the one loser tree behind MultiwayInto and
// MultiwayPrefixedInto. A match compares the heads' cached prefixes
// when pfx is non-nil and falls back to less on equal prefixes (or
// always, when pfx is nil); equal heads go to the smaller run index.
func multiway[E any](out []E, runs [][]E, pfx [][]uint64, less func(a, b E) bool) []E {
	switch len(runs) {
	case 0:
		return out
	case 1:
		return append(out, runs[0]...)
	case 2:
		if pfx == nil {
			return mergeTwo(out, runs[0], runs[1], nil, nil, less)
		}
		return mergeTwo(out, runs[0], runs[1], pfx[0], pfx[1], less)
	}

	k := len(runs)
	K := 1
	for K < k {
		K <<= 1
	}
	pos := make([]int, k)
	// tree[v] for internal nodes v in 1..K-1 stores the run index of the
	// loser of the match at v (-1 = empty/exhausted).
	tree := make([]int, K)

	exhausted := func(r int) bool { return r < 0 || pos[r] >= len(runs[r]) }
	// beats reports whether run a's head wins against run b's head:
	// strictly smaller, or equal with a < b (stability) — so one less
	// call decides: "not greater" for a < b, "smaller" otherwise.
	beats := func(a, b int) bool {
		if exhausted(a) {
			return false
		}
		if exhausted(b) {
			return true
		}
		if pfx != nil {
			if pa, pb := pfx[a][pos[a]], pfx[b][pos[b]]; pa != pb {
				return pa < pb
			}
		}
		x, y := runs[a][pos[a]], runs[b][pos[b]]
		if a < b {
			return !less(y, x)
		}
		return less(x, y)
	}

	// Build the tree bottom-up: initNode returns the winner of subtree v
	// and records losers on the way.
	var initNode func(v int) int
	initNode = func(v int) int {
		if v >= K {
			if r := v - K; r < k && len(runs[r]) > 0 {
				return r
			}
			return -1
		}
		wl, wr := initNode(2*v), initNode(2*v+1)
		if beats(wl, wr) {
			tree[v] = wr
			return wl
		}
		tree[v] = wl
		return wr
	}
	winner := initNode(1)

	// The tree is drained when the replayed winner is exhausted (all
	// remaining candidates lost against exhausted runs).
	for winner >= 0 && pos[winner] < len(runs[winner]) {
		out = append(out, runs[winner][pos[winner]])
		pos[winner]++
		// Replay the path from the winner's leaf to the root.
		w := winner
		for v := (K + winner) / 2; v >= 1; v /= 2 {
			if beats(tree[v], w) {
				tree[v], w = w, tree[v]
			}
		}
		winner = w
	}
	return out
}

// Merge2 merges two sorted runs into a fresh slice (stable: ties prefer a).
func Merge2[E any](a, b []E, less func(x, y E) bool) []E {
	return mergeTwo(make([]E, 0, len(a)+len(b)), a, b, nil, nil, less)
}

// mergeTwo merges two sorted runs into out (stable: ties prefer a).
// With sidecars pa, pb (the runs' cached prefixes) unequal prefixes
// decide and less breaks prefix ties; nil sidecars compare with less
// alone.
func mergeTwo[E any](out []E, a, b []E, pa, pb []uint64, less func(x, y E) bool) []E {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var takeB bool
		if pa != nil && pa[i] != pb[j] {
			takeB = pb[j] < pa[i]
		} else {
			takeB = less(b[j], a[i])
		}
		if takeB {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// MultiwayOps returns the modeled compare-and-move operation count of
// merging n elements from k runs: n·⌈log₂ k⌉ (at least n for the copy).
func MultiwayOps(n int64, k int) int64 {
	if n <= 0 {
		return 0
	}
	l := int64(0)
	for v := 1; v < k; v <<= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return n * l
}

// IsSorted reports whether data is non-decreasing under less.
func IsSorted[E any](data []E, less func(a, b E) bool) bool {
	for i := 1; i < len(data); i++ {
		if less(data[i], data[i-1]) {
			return false
		}
	}
	return true
}

// LowerBound returns the first index i in the sorted slice with
// data[i] >= x (i.e. !less(data[i], x)).
func LowerBound[E any](data []E, x E, less func(a, b E) bool) int {
	lo, hi := 0, len(data)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(data[mid], x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the first index i in the sorted slice with
// data[i] > x (i.e. less(x, data[i])).
func UpperBound[E any](data []E, x E, less func(a, b E) bool) int {
	lo, hi := 0, len(data)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(x, data[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
