package workload

import (
	"sort"
	"testing"
)

func TestKindsProduceRightSizes(t *testing.T) {
	const p, perPE = 8, 50
	for _, k := range []Kind{Uniform, Skewed, DupHeavy, Sorted, Reverse, AlmostSorted} {
		total := 0
		for rank := 0; rank < p; rank++ {
			loc := Local(k, 42, p, perPE, rank)
			if len(loc) != perPE {
				t.Errorf("%v rank %d: %d elements, want %d", k, rank, len(loc), perPE)
			}
			total += len(loc)
		}
		if total != p*perPE {
			t.Errorf("%v: total %d", k, total)
		}
	}
}

func TestOnePE(t *testing.T) {
	const p, perPE = 4, 10
	for rank := 0; rank < p; rank++ {
		loc := Local(OnePE, 1, p, perPE, rank)
		want := 0
		if rank == 0 {
			want = p * perPE
		}
		if len(loc) != want {
			t.Errorf("rank %d: %d elements, want %d", rank, len(loc), want)
		}
	}
}

func TestDeterministicPerRank(t *testing.T) {
	a := Local(Uniform, 7, 4, 100, 2)
	b := Local(Uniform, 7, 4, 100, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("not deterministic at %d", i)
		}
	}
	c := Local(Uniform, 8, 4, 100, 2)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d times", same)
	}
}

func TestSortedKindsAreSorted(t *testing.T) {
	const p, perPE = 4, 100
	var all []uint64
	for rank := 0; rank < p; rank++ {
		all = append(all, Local(Sorted, 1, p, perPE, rank)...)
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Error("Sorted workload is not globally sorted")
	}
	var rev []uint64
	for rank := 0; rank < p; rank++ {
		rev = append(rev, Local(Reverse, 1, p, perPE, rank)...)
	}
	for i := 1; i < len(rev); i++ {
		if rev[i] >= rev[i-1] {
			t.Fatalf("Reverse workload not strictly decreasing at %d", i)
		}
	}
}

func TestDupHeavyHasFewKeys(t *testing.T) {
	seen := map[uint64]bool{}
	for rank := 0; rank < 4; rank++ {
		for _, v := range Local(DupHeavy, 3, 4, 200, rank) {
			seen[v] = true
		}
	}
	if len(seen) > 16 {
		t.Errorf("DupHeavy produced %d distinct keys, want ≤ 16", len(seen))
	}
}

func TestSkewedIsSkewed(t *testing.T) {
	loc := Local(Skewed, 5, 1, 10000, 0)
	below := 0
	for _, v := range loc {
		if v < 1<<58 { // u^8 < 1/32 ⇔ u < 0.65
			below++
		}
	}
	if below < len(loc)/2 {
		t.Errorf("Skewed mass not concentrated at small keys: %d/%d below 2^58", below, len(loc))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Uniform: "uniform", Skewed: "skewed", DupHeavy: "dup-heavy",
		Sorted: "sorted", Reverse: "reverse", AlmostSorted: "almost-sorted", OnePE: "one-pe"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestParseKindRoundTrips(t *testing.T) {
	for _, k := range []Kind{Uniform, Skewed, DupHeavy, Sorted, Reverse, AlmostSorted, OnePE} {
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("gaussian"); ok {
		t.Errorf("ParseKind accepted an unknown name")
	}
	if s := Kind(99).String(); s != "invalid" {
		t.Errorf("Kind(99).String() = %q", s)
	}
}
