package seq

import (
	"math/rand"
	"reflect"
	"testing"
)

func u64less(a, b uint64) bool { return a < b }

// TestKeyedClassifierMatchesGeneric pins ClassifyKeyed against the
// generic Classifier.Bucket on random splitter sets with duplicates:
// under the Config.Key contract the two must classify every key
// identically, including keys equal to a splitter run.
func TestKeyedClassifierMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 45)
	for k := range keys {
		keys[k] = uint64(k)
	}
	ids := make([]uint16, len(keys))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(70)
		splitters := make([]uint64, m)
		for i := range splitters {
			splitters[i] = uint64(rng.Intn(40)) // small domain: plenty of duplicates
		}
		sortSplitters(splitters)
		gen := NewClassifier(splitters, u64less)
		key := NewKeyedClassifier(splitters)
		if gen.NumBuckets() != key.NumBuckets() || gen.Levels() != key.Levels() {
			t.Fatalf("shape mismatch: %d/%d buckets, %d/%d levels",
				gen.NumBuckets(), key.NumBuckets(), gen.Levels(), key.Levels())
		}
		ClassifyKeyed(keys, func(x uint64) uint64 { return x }, key, ids)
		for _, k := range keys {
			if g, kk := gen.Bucket(k), int(ids[k]); g != kk {
				t.Fatalf("trial %d: Bucket(%d) = %d generic, %d keyed (splitters %v)", trial, k, g, kk, splitters)
			}
		}
	}
}

// TestClassifyKeyedMatchesPartitionInPlace pins the unrolled keyed
// classification + PartitionInPlaceIDs against the closure-driven
// PartitionInPlace: same bounds, same bucket contents (as multisets —
// the flag walk is unstable), for awkward lengths around the 4-way
// unroll.
func TestClassifyKeyedMatchesPartitionInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	splitters := []uint64{10, 20, 20, 30, 55}
	kc := NewKeyedClassifier(splitters)
	cls := NewClassifier(splitters, u64less)
	nb := kc.NumBuckets()
	for _, n := range []int{0, 1, 3, 4, 5, 64, 257} {
		data := make([]uint64, n)
		for i := range data {
			data[i] = uint64(rng.Intn(70))
		}
		ref := append([]uint64(nil), data...)
		refBounds, _ := PartitionInPlace(ref, nb, func(x uint64) int { return cls.Bucket(x) }, nil)

		got := append([]uint64(nil), data...)
		ids := make([]uint16, n)
		ClassifyKeyed(got, func(x uint64) uint64 { return x }, kc, ids)
		gotBounds := PartitionInPlaceIDs(got, nb, ids)

		if !reflect.DeepEqual(refBounds, gotBounds) {
			t.Fatalf("n=%d: bounds %v != %v", n, gotBounds, refBounds)
		}
		for b := 0; b < nb; b++ {
			rb := append([]uint64(nil), ref[refBounds[b]:refBounds[b+1]]...)
			gb := append([]uint64(nil), got[gotBounds[b]:gotBounds[b+1]]...)
			sortSplitters(rb)
			sortSplitters(gb)
			if !reflect.DeepEqual(rb, gb) {
				t.Fatalf("n=%d bucket %d: %v != %v", n, b, gb, rb)
			}
		}
	}
}

// TestSortKeyedHistMatchesSortKeyed pins the split histogram/scatter
// API against the one-shot SortKeyed: same stable order, histograms
// accumulated over arbitrary chunkings.
func TestSortKeyedHistMatchesSortKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type pair struct{ k, v uint64 }
	key := func(p pair) uint64 { return p.k }
	for _, n := range []int{0, 1, 63, 64, 100, 1000} {
		data := make([]pair, n)
		for i := range data {
			data[i] = pair{k: uint64(rng.Intn(50)), v: uint64(i)}
		}
		ref := append([]pair(nil), data...)
		SortKeyed(ref, key, nil)

		got := append([]pair(nil), data...)
		var h KeyedHist
		// Accumulate histograms chunk-wise, like the streaming concat.
		for lo := 0; lo < n; lo += 37 {
			hi := min(lo+37, n)
			HistKeyed(got[lo:hi], key, &h)
		}
		sorted, _ := SortKeyedHist(got, key, nil, &h)
		if n >= 64 {
			// SortKeyed's small-n insertion path and the radix path are
			// both stable; above the cutoff they share the radix code.
			if !reflect.DeepEqual(sorted, ref) {
				t.Fatalf("n=%d: SortKeyedHist differs from SortKeyed", n)
			}
		} else {
			for i := range sorted {
				if sorted[i].k != ref[i].k {
					t.Fatalf("n=%d: key order differs at %d", n, i)
				}
			}
		}
	}
	// Mismatched histogram must fail loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("SortKeyedHist with a short histogram must panic")
		}
	}()
	var h KeyedHist
	HistKeyed([]pair{{1, 1}}, key, &h)
	SortKeyedHist(make([]pair, 64), key, nil, &h)
}

func sortSplitters(s []uint64) {
	Sort(s, u64less)
}
