package seq

import (
	"math/rand"
	"reflect"
	"testing"
)

// pv is the tie-revealing test element: ordered by K only, with a
// payload that exposes how equal-K elements were permuted.
type pv struct {
	K   uint64
	Tag int
}

func pvLess(a, b pv) bool { return a.K < b.K }

// coarse collapses 4 adjacent keys onto one prefix — a valid
// order-preserving non-injective hook for pvLess.
func coarse(e pv) uint64 { return e.K >> 2 }

func randPV(rng *rand.Rand, n, keyRange int) []pv {
	out := make([]pv, n)
	for i := range out {
		out[i] = pv{K: uint64(rng.Intn(keyRange)), Tag: i}
	}
	return out
}

// TestSortPrefixedMatchesStable: SortPrefixed must produce exactly the
// stable-by-less order, for injective, coarse, and constant prefixes,
// across sizes spanning the insertion cutoff, the radix path, and the
// all-trivial-pass fallback.
func TestSortPrefixedMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hooks := map[string]func(pv) uint64{
		"identity": func(e pv) uint64 { return e.K },
		"coarse":   coarse,
		"constant": func(pv) uint64 { return 42 },
	}
	var sc PrefixScratch[pv]
	for name, hook := range hooks {
		for _, n := range []int{0, 1, 2, 3, prefixInsertionCutoff, prefixInsertionCutoff + 1, 200, 3000} {
			for _, keyRange := range []int{1, 2, 7, 256, 1 << 20} {
				data := randPV(rng, n, keyRange)
				want := append([]pv{}, data...)
				SortStable(want, pvLess)
				pfx := ExtractPrefixes(nil, data, hook)
				SortPrefixed(data, pfx, pvLess, &sc)
				if !reflect.DeepEqual(data, want) {
					t.Fatalf("%s hook, n=%d range=%d: SortPrefixed diverges from SortStable", name, n, keyRange)
				}
			}
		}
	}
}

// kv8 is the word-sized tie-revealing element: 8 bytes, so SortPrefixed
// takes the lockstep strategy instead of the (prefix, id) pair path,
// while the Tag half still exposes how equal-K elements were permuted.
type kv8 struct {
	K   uint32
	Tag uint32
}

func kv8Less(a, b kv8) bool { return a.K < b.K }

// TestSortPrefixedLockstepMatchesStable is TestSortPrefixedMatchesStable
// for the lockstep strategy: identity, coarse, and constant hooks over
// sizes spanning the insertion cutoff and key ranges spanning odd and
// even active-pass counts (including the all-trivial fallback).
func TestSortPrefixedLockstepMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hooks := map[string]func(kv8) uint64{
		"identity": func(e kv8) uint64 { return uint64(e.K) },
		"coarse":   func(e kv8) uint64 { return uint64(e.K >> 2) },
		"constant": func(kv8) uint64 { return 42 },
	}
	var sc PrefixScratch[kv8]
	for name, hook := range hooks {
		for _, n := range []int{0, 1, 2, 3, prefixInsertionCutoff, prefixInsertionCutoff + 1, 200, 3000} {
			for _, keyRange := range []int{1, 2, 7, 256, 1 << 9, 1 << 20} {
				data := make([]kv8, n)
				for i := range data {
					data[i] = kv8{K: uint32(rng.Intn(keyRange)), Tag: uint32(i)}
				}
				want := append([]kv8{}, data...)
				SortStable(want, kv8Less)
				pfx := ExtractPrefixes(nil, data, hook)
				SortPrefixed(data, pfx, kv8Less, &sc)
				if !reflect.DeepEqual(data, want) {
					t.Fatalf("%s hook, n=%d range=%d: SortPrefixed (lockstep) diverges from SortStable", name, n, keyRange)
				}
			}
		}
	}
}

// TestSortPrefixedStability pins the stability contract directly: equal
// prefixes with equal keys must keep their original relative order.
func TestSortPrefixedStability(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var sc PrefixScratch[pv]
	for _, n := range []int{10, prefixInsertionCutoff + 10, 1000} {
		data := randPV(rng, n, 4) // heavy ties
		pfx := ExtractPrefixes(nil, data, coarse)
		SortPrefixed(data, pfx, pvLess, &sc)
		for i := 1; i < len(data); i++ {
			a, b := data[i-1], data[i]
			if a.K > b.K {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
			if a.K == b.K && a.Tag > b.Tag {
				t.Fatalf("n=%d: equal keys reordered at %d (%d before %d)", n, i, a.Tag, b.Tag)
			}
		}
	}
}

// tiedRuns draws k stably sorted runs of up to maxLen elements over
// keyRange keys — so ties within and across runs are common — each
// tagged with its global position, plus their coarse prefix sidecars.
func tiedRuns(rng *rand.Rand, k, maxLen, keyRange int) ([][]pv, [][]uint64) {
	runs := make([][]pv, k)
	pfx := make([][]uint64, k)
	tag := 0
	for r := range runs {
		run := randPV(rng, rng.Intn(maxLen+1), keyRange)
		for j := range run {
			run[j].Tag = tag
			tag++
		}
		SortStable(run, pvLess)
		runs[r] = run
		pfx[r] = ExtractPrefixes(nil, run, coarse)
	}
	return runs, pfx
}

// stableMerge is the merge oracle, independent of the loser tree: a
// stable sort of the runs concatenated in run order puts ties in run
// order, then in position order — exactly a stable multiway merge.
func stableMerge(runs [][]pv) []pv {
	var all []pv
	for _, r := range runs {
		all = append(all, r...)
	}
	SortStable(all, pvLess)
	return all
}

// TestMultiwayPrefixedEquivalence: on tied sorted runs, the prefix-aware
// loser tree — with sidecars, and with a nil sidecar (a plain
// comparator merge) — must reproduce the stable merge byte for byte.
// k = 2 takes the two-way merge; the larger k the loser tree.
func TestMultiwayPrefixedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{0, 1, 2, 3, 5, 8, 17} {
		for trial := 0; trial < 30; trial++ {
			runs, pfx := tiedRuns(rng, k, 40, 8)
			want := stableMerge(runs)
			if got := MultiwayPrefixedInto(nil, runs, pfx, pvLess); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d trial=%d: MultiwayPrefixedInto diverges from the stable merge", k, trial)
			}
			if got := MultiwayPrefixedInto(nil, runs, nil, pvLess); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d trial=%d: nil-sidecar MultiwayPrefixedInto diverges from the stable merge", k, trial)
			}
		}
	}
}

// TestClassifyPrefixedAgreesWithClassifier: on random splitter trees —
// including duplicate splitters and collision-heavy coarse prefixes —
// the prefix descent plus fallback must bucket every element exactly
// like the generic comparator classifier.
func TestClassifyPrefixedAgreesWithClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(40)
		splitters := make([]pv, m)
		for i := range splitters {
			splitters[i] = pv{K: uint64(rng.Intn(24))}
		}
		SortStable(splitters, pvLess)
		data := randPV(rng, 500, 24)

		cls := NewClassifier(splitters, pvLess)
		want := make([]int, len(data))
		for i, x := range data {
			want[i] = cls.Bucket(x)
		}

		spfx := ExtractPrefixes(nil, splitters, coarse)
		pc := NewPrefixClassifier(spfx)
		if pc.NumBuckets() != cls.NumBuckets() {
			t.Fatalf("bucket count mismatch: %d vs %d", pc.NumBuckets(), cls.NumBuckets())
		}
		ids := make([]uint16, len(data))
		fallbacks := 0
		ClassifyPrefixed(data, coarse, pc, ids, func(i, lo, hi int) int {
			fallbacks++
			if lo < 0 || hi > m || lo >= hi {
				t.Fatalf("bad fallback run [%d, %d)", lo, hi)
			}
			x := data[i]
			for j := lo; j < hi; j++ {
				if coarse(splitters[j]) != coarse(x) {
					t.Fatalf("fallback run [%d, %d) includes splitter %d with prefix %d != %d",
						lo, hi, j, coarse(splitters[j]), coarse(x))
				}
			}
			return lo + UpperBound(splitters[lo:hi], x, pvLess)
		})
		for i := range data {
			if int(ids[i]) != want[i] {
				t.Fatalf("trial=%d: element %d bucketed %d, generic classifier says %d", trial, i, ids[i], want[i])
			}
		}
		if fallbacks == 0 {
			t.Fatalf("trial=%d: coarse prefixes produced no collisions — test not exercising the fallback", trial)
		}
	}
}

// TestPrefixPairScratchReuse: the scratch survives reuse across calls
// of different sizes.
func TestPrefixScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc PrefixScratch[pv]
	for _, n := range []int{500, 100, 2000, 1} {
		data := randPV(rng, n, 64)
		want := append([]pv(nil), data...)
		SortStable(want, pvLess)
		pfx := ExtractPrefixes(nil, data, coarse)
		SortPrefixed(data, pfx, pvLess, &sc)
		if !reflect.DeepEqual(data, want) {
			t.Fatalf("n=%d: scratch reuse corrupted the sort", n)
		}
	}
}
