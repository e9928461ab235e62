package seq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func randRuns(rng *rand.Rand, k, maxLen, keyRange int) [][]int {
	runs := make([][]int, k)
	for i := range runs {
		n := rng.Intn(maxLen + 1)
		r := make([]int, n)
		for j := range r {
			r[j] = rng.Intn(keyRange)
		}
		sort.Ints(r)
		runs[i] = r
	}
	return runs
}

func TestMultiwayAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 8, 17, 64} {
		for trial := 0; trial < 20; trial++ {
			runs := randRuns(rng, k, 50, 100)
			var all []int
			for _, r := range runs {
				all = append(all, r...)
			}
			got := Multiway(runs, intLess)
			want := append([]int(nil), all...)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("k=%d: merged %d elements, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d trial=%d: mismatch at %d: got %d want %d", k, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMultiwayStability merges runs of (key, runID) pairs with many
// duplicate keys and checks that ties are resolved by run index.
func TestMultiwayStability(t *testing.T) {
	type kv struct{ key, run, pos int }
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(9)
		runs := make([][]kv, k)
		for r := range runs {
			n := rng.Intn(40)
			run := make([]kv, n)
			for j := range run {
				run[j] = kv{key: rng.Intn(5), run: r, pos: j}
			}
			sort.SliceStable(run, func(a, b int) bool { return run[a].key < run[b].key })
			// re-stamp positions after sort so they reflect run order
			for j := range run {
				run[j].pos = j
			}
			runs[r] = run
		}
		out := Multiway(runs, func(a, b kv) bool { return a.key < b.key })
		for i := 1; i < len(out); i++ {
			a, b := out[i-1], out[i]
			if a.key > b.key {
				t.Fatalf("not sorted at %d", i)
			}
			if a.key == b.key {
				if a.run > b.run || (a.run == b.run && a.pos > b.pos) {
					t.Fatalf("stability violated at %d: (%d,%d,%d) before (%d,%d,%d)",
						i, a.key, a.run, a.pos, b.key, b.run, b.pos)
				}
			}
		}
	}
}

func TestMultiwayEmptyRuns(t *testing.T) {
	runs := [][]int{{}, {1, 3}, {}, {2}, {}}
	got := Multiway(runs, intLess)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v want %v", got, want)
	}
	if out := Multiway(nil, intLess); len(out) != 0 {
		t.Fatalf("merging no runs gave %v", out)
	}
}

func TestMultiwayOps(t *testing.T) {
	if MultiwayOps(0, 4) != 0 {
		t.Error("zero elements should cost nothing")
	}
	if MultiwayOps(10, 1) != 10 {
		t.Errorf("k=1 should cost n: %d", MultiwayOps(10, 1))
	}
	if MultiwayOps(10, 8) != 30 {
		t.Errorf("k=8 should cost 3n: %d", MultiwayOps(10, 8))
	}
	if MultiwayOps(10, 9) != 40 {
		t.Errorf("k=9 should cost 4n: %d", MultiwayOps(10, 9))
	}
}

func TestBounds(t *testing.T) {
	if err := quick.Check(func(raw []uint8, x uint8) bool {
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v % 16)
		}
		sort.Ints(data)
		lb := LowerBound(data, int(x%16), intLess)
		ub := UpperBound(data, int(x%16), intLess)
		// Reference by linear scan.
		wantLB, wantUB := 0, 0
		for _, v := range data {
			if v < int(x%16) {
				wantLB++
			}
			if v <= int(x%16) {
				wantUB++
			}
		}
		return lb == wantLB && ub == wantUB
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]int{}, intLess) || !IsSorted([]int{1}, intLess) || !IsSorted([]int{1, 1, 2}, intLess) {
		t.Error("sorted slices reported unsorted")
	}
	if IsSorted([]int{2, 1}, intLess) {
		t.Error("unsorted slice reported sorted")
	}
}

// referenceBucket computes |{i : splitters[i] <= x}| by scan.
func referenceBucket(splitters []int, x int) int {
	b := 0
	for _, s := range splitters {
		if s <= x {
			b++
		}
	}
	return b
}

func TestClassifierAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 3, 4, 7, 8, 15, 16, 33, 100} {
		splitters := make([]int, m)
		for i := range splitters {
			splitters[i] = rng.Intn(50)
		}
		sort.Ints(splitters)
		c := NewClassifier(splitters, intLess)
		if c.NumBuckets() != m+1 {
			t.Fatalf("m=%d: NumBuckets=%d", m, c.NumBuckets())
		}
		for x := -1; x <= 51; x++ {
			got := c.Bucket(x)
			want := referenceBucket(splitters, x)
			if got != want {
				t.Fatalf("m=%d x=%d: Bucket=%d want %d (splitters=%v)", m, x, got, want, splitters)
			}
		}
	}
}

func TestClassifyOps(t *testing.T) {
	if ClassifyOps(100, 5) != 500 {
		t.Errorf("ClassifyOps wrong: %d", ClassifyOps(100, 5))
	}
}

func TestClassifierLevels(t *testing.T) {
	for _, tc := range []struct{ m, levels int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {15, 4}, {16, 5}} {
		splitters := make([]int, tc.m)
		for i := range splitters {
			splitters[i] = i
		}
		c := NewClassifier(splitters, intLess)
		if c.Levels() != tc.levels {
			t.Errorf("m=%d: levels=%d want %d", tc.m, c.Levels(), tc.levels)
		}
	}
}
