package core

import (
	"math/rand"
	"testing"

	"pmsort/internal/seq"
	"pmsort/internal/sim"
)

// refTieBucket is the binary-search Appendix-D classification that the
// tie table (seq.TieTable) replaced, kept as the reference: the
// element's Classifier.Bucket, except that an element equal to a splitter key
// lands at the first splitter of that key's run whose (PE, position)
// tag is not below its own (me, i).
func refTieBucket[E any](splitters []tagged[E], less func(a, b E) bool, me int32, i int, x E) int {
	keys := make([]E, len(splitters))
	for j, s := range splitters {
		keys[j] = s.key
	}
	b := seq.UpperBound(keys, x, less)
	if b == 0 || less(keys[b-1], x) {
		return b
	}
	k := keys[b-1]
	lo := seq.LowerBound(keys, k, less)
	hi := seq.UpperBound(keys, k, less)
	mine := tagged[E]{key: x, pe: me, idx: int32(i)}
	return lo + seq.LowerBound(splitters[lo:hi], mine, taggedLess(less))
}

// TestTieFixMatchesBinarySearch drives amsPartition on hand-built
// tagged splitters and checks every element's bucket against
// refTieBucket on both classification branches (the uint64 tree, under
// an exact hook and a coarse prefix, and the comparator tree). The
// equal-key runs span several PEs, so the five ranks sit below, inside
// and above each of them; the positions run before, between and past
// the runs' tags; and the coarse prefix puts keys 9–12 into one
// equal-prefix run. Edge runs of the tie table: the first splitter's
// tag sits at position 0 (key 5); PE 0 owns adjacent positions 5 and 6
// (key 10); runs made only of one PE's tags (keys 5, 12, 35, 40); and
// PE 2 passes three own tags of key 30, so its thr advances three times.
// Besides random positions, a "runs" layout writes equal-key runs of
// length 1–9 that start at every offset of the descent's blocks of
// four; a run around each own tag takes that tag's key, so runs
// straddle own-tag thresholds and are filled one segment per crossing.
func TestTieFixMatchesBinarySearch(t *testing.T) {
	type kv struct{ K, V int } // V: the element's input position
	less := func(a, b kv) bool { return a.K < b.K }
	tag := func(k, pe, idx int) tagged[kv] { return tagged[kv]{key: kv{K: k}, pe: int32(pe), idx: int32(idx)} }
	splitters := []tagged[kv]{
		tag(5, 4, 0), tag(5, 4, 3),
		tag(9, 3, 1),
		tag(10, 0, 5), tag(10, 0, 6), tag(10, 1, 2), tag(10, 1, 9), tag(10, 2, 0), tag(10, 2, 7), tag(10, 3, 3),
		tag(12, 1, 4), tag(12, 1, 6),
		tag(20, 4, 8),
		tag(30, 1, 1), tag(30, 2, 3), tag(30, 2, 8), tag(30, 2, 20), tag(30, 3, 0),
		tag(35, 3, 10), tag(35, 3, 11), tag(35, 3, 30),
		tag(40, 0, 0), tag(40, 0, 12),
	}
	for j := 1; j < len(splitters); j++ {
		if !taggedLess(less)(splitters[j-1], splitters[j]) {
			t.Fatalf("splitters not strictly sorted at %d", j)
		}
	}
	domain := []int{3, 5, 9, 10, 11, 12, 20, 25, 30, 35, 40, 50}
	branches := map[string]localScratch[kv]{
		"keyed":      {hook: func(e kv) uint64 { return uint64(e.K) }, exact: true},
		"coarse":     {hook: func(e kv) uint64 { return uint64(e.K) >> 3 }},
		"comparator": {},
	}
	const p, n = 5, 48
	for name, proto := range branches {
		for _, layout := range []string{"random", "runs"} {
			sim.NewDefault(p).Run(func(pe *sim.PE) {
				me := int32(pe.Rank())
				rng := rand.New(rand.NewSource(int64(me) + 1))
				data := make([]kv, n)
				for i := range data {
					data[i] = kv{K: domain[rng.Intn(len(domain))], V: i}
				}
				if layout == "runs" {
					for lo := 0; lo < n; {
						hi := min(n, lo+1+rng.Intn(9))
						k := domain[rng.Intn(len(domain))]
						for _, s := range splitters {
							if s.pe == me && int(s.idx) >= lo && int(s.idx) < hi {
								k = s.key.K
								break
							}
						}
						for i := lo; i < hi; i++ {
							data[i].K = k
						}
						lo = hi
					}
				}
				for _, s := range splitters {
					if s.pe == me && int(s.idx) < n { // a splitter is a sample of its PE's data
						data[s.idx].K = s.key.K
					}
				}
				st := proto // a private id scratch per PE
				_, bounds := amsPartition(sim.World(pe), data, splitters, less, &st)
				for b := 0; b+1 < len(bounds); b++ {
					for _, e := range data[bounds[b]:bounds[b+1]] {
						if want := refTieBucket(splitters, less, me, e.V, e); b != want {
							t.Errorf("%s %s: PE %d position %d key %d in bucket %d, reference %d", name, layout, me, e.V, e.K, b, want)
						}
					}
				}
			})
		}
	}
}
