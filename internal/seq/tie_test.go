package seq

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// runData builds run-structured input around splitter keys: singleton
// filler, then for every offset mod 4 and run length 1–9 a run of one
// key — a splitter key (colliding) or a key between splitters (not) —
// and a final run that reaches past the last full block of four.
func runData(rng *rand.Rand, splitterKeys, freeKeys []uint64) []pv {
	var data []pv
	add := func(k uint64, c int) {
		for ; c > 0; c-- {
			data = append(data, pv{K: k, Tag: len(data)})
		}
	}
	pick := func(ks []uint64) uint64 { return ks[rng.Intn(len(ks))] }
	for off := 0; off < 4; off++ {
		for l := 1; l <= 9; l++ {
			for _, ks := range [][]uint64{splitterKeys, freeKeys} {
				for len(data)%4 != off {
					add(uint64(rng.Intn(64)), 1)
				}
				add(pick(ks), l)
			}
		}
	}
	add(pick(splitterKeys), 1+rng.Intn(3))
	add(pick(splitterKeys), 6+rng.Intn(4))
	return data
}

// tieTags draws a valid threshold per splitter: within each equal-key
// run the tags are non-decreasing (lower-PE tags, then own positions,
// then higher-PE tags), as the (pe, idx) order of a run's tags makes
// them.
func tieTags(rng *rand.Rand, keys []uint64, n int) (runLo, tag []int32) {
	runLo, tag = make([]int32, len(keys)), make([]int32, len(keys))
	for j := range keys {
		runLo[j] = int32(j)
		if j > 0 && keys[j-1] == keys[j] {
			runLo[j] = runLo[j-1]
		}
		switch r := rng.Intn(4); {
		case r == 0:
			tag[j] = -1
		case r == 1:
			tag[j] = math.MaxInt32
		default:
			tag[j] = int32(rng.Intn(n))
		}
	}
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi] == keys[lo] {
			hi++
		}
		s := tag[lo:hi]
		SortStable(s, func(a, b int32) bool { return a < b })
		lo = hi
	}
	return runLo, tag
}

// refTie is the tie table's bucket by definition: the run's first
// splitter plus the number of its tags that position x has passed.
func refTie(runLo, tag []int32, x, lo int) int {
	b := lo
	for k := lo; k < len(runLo) && int(runLo[k]) == lo; k++ {
		if int(tag[k]) < x {
			b++
		}
	}
	return b
}

// TestClassifyRunsMatchPerElement: the run rule of the descent loop
// must give every element the bucket a per-element descent plus
// per-element fallback gives it, and must call fallback on the same
// positions in the same order. Inputs are run-structured (runData:
// every run length 1–9 at every offset mod 4, runs into the tail),
// under an exact and a coarse hook, with splitter runs and with runs
// between splitters.
func TestClassifyRunsMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	hooks := map[string]func(pv) uint64{
		"exact":  func(e pv) uint64 { return e.K },
		"coarse": coarse,
	}
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(24)
		keys := make([]uint64, m)
		for i := range keys {
			keys[i] = 4 * uint64(rng.Intn(16)) // multiples of 4: the free keys below sit between them
		}
		sortSplitters(keys)
		free := []uint64{1, 2, 3, 5, 9, 14, 63, 70, 1000}
		data := runData(rng, keys, free)
		n := len(data)
		splitters := make([]pv, m)
		for i, k := range keys {
			splitters[i] = pv{K: k}
		}
		runLo, tag := tieTags(rng, keys, n)

		for name, hook := range hooks {
			pc := NewPrefixClassifier(ExtractPrefixes(nil, splitters, hook))
			// The per-element reference: one descent per element, the
			// fallback per colliding element.
			var wantCalls []int
			want := make([]uint16, n)
			for i, x := range data {
				k := hook(x)
				b := pc.bucket(k)
				if b > 0 && pc.spfx[b-1] == k {
					wantCalls = append(wantCalls, i)
					lo := int(pc.runStart[b-1])
					b = lo + UpperBound(splitters[lo:b], x, pvLess)
				}
				want[i] = uint16(b)
			}
			var calls []int
			got := make([]uint16, n)
			ClassifyPrefixed(data, hook, pc, got, func(i, lo, hi int) int {
				calls = append(calls, i)
				return lo + UpperBound(splitters[lo:hi], data[i], pvLess)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: ClassifyPrefixed buckets differ from the per-element reference", trial, name)
			}
			if !reflect.DeepEqual(calls, wantCalls) {
				t.Fatalf("trial %d %s: fallback called on %v, per-element reference on %v", trial, name, calls, wantCalls)
			}
			if len(calls) == 0 {
				t.Fatalf("trial %d %s: no collision — the test is not exercising the fallback", trial, name)
			}
			if name != "exact" {
				continue
			}
			if ClassifyKeyed(data, hook, pc, got); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: ClassifyKeyed buckets differ from the per-element reference", trial)
			}
			// Appendix-D ties: the run fill against the table's
			// definition, element by element.
			ClassifyKeyedTies(data, hook, pc, got, NewTieTable(runLo, tag))
			for i, x := range data {
				b := pc.bucket(x.K)
				if b > 0 && keys[b-1] == x.K {
					b = refTie(runLo, tag, i, int(runLo[b-1]))
				}
				if int(got[i]) != b {
					t.Fatalf("trial %d: position %d key %d tie-filled to bucket %d, reference %d", trial, i, x.K, got[i], b)
				}
			}
		}
	}
}

// TestHistKeyedRunsInChunks: the run-length histogram, fed in chunks
// whose cuts split runs, equals the per-element histogram.
func TestHistKeyedRunsInChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	key := func(e pv) uint64 { return e.K }
	for trial := 0; trial < 30; trial++ {
		var data []pv
		for len(data) < 600 {
			k := rng.Uint64() >> uint(rng.Intn(64))
			for c := 1 + rng.Intn(40); c > 0; c-- {
				data = append(data, pv{K: k})
			}
		}
		var want KeyedHist
		want.n = len(data)
		for _, e := range data {
			for d := 0; d < 8; d++ {
				want.hist[d][(e.K>>(8*d))&0xff]++
			}
		}
		var got KeyedHist
		for lo := 0; lo < len(data); {
			hi := min(len(data), lo+rng.Intn(50))
			HistKeyed(data[lo:hi], key, &got)
			lo = hi
		}
		if got != want {
			t.Fatalf("trial %d: chunked run-length histogram differs from the per-element one", trial)
		}
	}
}
