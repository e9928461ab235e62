package seq

import (
	"math/rand"
	"testing"
)

// benchPV builds n tie-light 16-byte elements for the kernel gap
// benchmarks below.
func benchPV(n int) []pv {
	rng := rand.New(rand.NewSource(42))
	out := make([]pv, n)
	for i := range out {
		out[i] = pv{K: rng.Uint64(), Tag: i}
	}
	return out
}

// BenchmarkSortStableCmp is the plain comparator baseline the prefix
// kernel is measured against (the same stable contract).
func BenchmarkSortStableCmp(b *testing.B) {
	const n = 1 << 18
	src := benchPV(n)
	data := make([]pv, n)
	b.SetBytes(int64(16 * n))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(data, src)
		b.StartTimer()
		SortStable(data, pvLess)
	}
}

// BenchmarkSortPrefixed measures the prefix-cached local sort: LSD
// radix over the uint64 sidecar, one payload permutation, comparator
// only inside equal-prefix runs. Extraction is included — it is part of
// what the sorters pay per level.
func BenchmarkSortPrefixed(b *testing.B) {
	const n = 1 << 18
	src := benchPV(n)
	data := make([]pv, n)
	var pfx []uint64
	var sc PrefixScratch[pv]
	b.SetBytes(int64(16 * n))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(data, src)
		b.StartTimer()
		pfx = ExtractPrefixes(pfx[:0], data, func(e pv) uint64 { return e.K })
		SortPrefixed(data, pfx, pvLess, &sc)
	}
}

// BenchmarkSortPrefixedU64 is BenchmarkSortPrefixed on word-sized
// payloads — the lockstep radix strategy — with the keyed LSD radix on
// the same input as the ceiling it chases.
func BenchmarkSortPrefixedU64(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(42))
	src := make([]uint64, n)
	for i := range src {
		src[i] = rng.Uint64()
	}
	data := make([]uint64, n)
	u64Less := func(a, c uint64) bool { return a < c }
	identity := func(e uint64) uint64 { return e }

	b.Run("prefix", func(b *testing.B) {
		var pfx []uint64
		var sc PrefixScratch[uint64]
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(data, src)
			b.StartTimer()
			pfx = ExtractPrefixes(pfx[:0], data, identity)
			SortPrefixed(data, pfx, u64Less, &sc)
		}
	})
	b.Run("keyed", func(b *testing.B) {
		scratch := make([]uint64, n)
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(data, src)
			b.StartTimer()
			SortKeyed(data, identity, scratch)
		}
	})
}

// BenchmarkClassifyPrefixed measures the branchless prefix descent on a
// full 256-bucket splitter tree against the comparator-tree classifier.
func BenchmarkClassifyPrefixed(b *testing.B) {
	const n, m = 1 << 18, 255
	data := benchPV(n)
	splitters := benchPV(m)
	SortStable(splitters, pvLess)
	identity := func(e pv) uint64 { return e.K }

	b.Run("cmp", func(b *testing.B) {
		cls := NewClassifier(splitters, pvLess)
		b.SetBytes(int64(16 * n))
		for i := 0; i < b.N; i++ {
			for _, x := range data {
				_ = cls.Bucket(x)
			}
		}
	})
	b.Run("prefix", func(b *testing.B) {
		spfx := ExtractPrefixes(nil, splitters, identity)
		pc := NewPrefixClassifier(spfx)
		ids := make([]uint16, n)
		fallback := func(i, lo, hi int) int {
			return lo + UpperBound(splitters[lo:hi], data[i], pvLess)
		}
		b.SetBytes(int64(16 * n))
		for i := 0; i < b.N; i++ {
			ClassifyPrefixed(data, identity, pc, ids, fallback)
		}
	})
	// runs: what a second AMS level classifies on duplicate-heavy
	// input under an exact hook — constant runs against splitters that
	// repeat keys — with the Appendix-D tie table (rebuilt per call, as
	// every level builds its own).
	b.Run("runs", func(b *testing.B) {
		keys := levelOneRuns(n)
		rng := rand.New(rand.NewSource(43))
		spl := make([]uint64, m)
		for i := range spl {
			spl[i] = keys[rng.Intn(n)]
		}
		sortSplitters(spl)
		runLo, tag := tieTags(rng, spl, n)
		kc := NewKeyedClassifier(spl)
		ids := make([]uint16, n)
		key := func(e uint64) uint64 { return e }
		b.SetBytes(int64(8 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ClassifyKeyedTies(keys, key, kc, ids, NewTieTable(runLo, tag))
		}
	})
}

// levelOneRuns builds n keys shaped like the input of a second AMS
// level on duplicate-heavy data: four received chunks, each a sorted
// sequence of runs over the same 16 keys.
func levelOneRuns(n int) []uint64 {
	rng := rand.New(rand.NewSource(44))
	out := make([]uint64, 0, n)
	for c := 0; c < 4; c++ {
		chunk := make([]uint64, n/4)
		for i := range chunk {
			chunk[i] = uint64(rng.Intn(16)) << 40
		}
		SortStable(chunk, func(a, b uint64) bool { return a < b })
		out = append(out, chunk...)
	}
	return out
}

// BenchmarkHistKeyed measures the radix histogram pass on uniform keys
// and on the run-structured keys of levelOneRuns.
func BenchmarkHistKeyed(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(45))
	uniform := make([]uint64, n)
	for i := range uniform {
		uniform[i] = rng.Uint64()
	}
	key := func(e uint64) uint64 { return e }
	for _, in := range []struct {
		name string
		data []uint64
	}{{"uniform", uniform}, {"runs", levelOneRuns(n)}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				var h KeyedHist
				HistKeyed(in.data, key, &h)
			}
		})
	}
}
