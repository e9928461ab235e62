package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/sim"
)

func intLess(a, b int) bool { return a < b }

type sorterFn func(c comm.Communicator, data []int, less func(a, b int) bool, cfg Config) ([]int, *Stats)

// runSorter executes a distributed sorter and returns the per-PE outputs
// and stats.
func runSorter(p int, locals [][]int, cfg Config, fn sorterFn) ([][]int, []*Stats) {
	m := sim.NewDefault(p)
	outs := make([][]int, p)
	stats := make([]*Stats, p)
	m.Run(func(pe *sim.PE) {
		c := sim.World(pe)
		// The sorters consume their input (reorder in place, recycle
		// the buffer as scratch); hand them a copy so checkSorted can
		// still read the original locals.
		data := append([]int(nil), locals[pe.Rank()]...)
		outs[pe.Rank()], stats[pe.Rank()] = fn(c, data, intLess, cfg)
	})
	return outs, stats
}

// checkSorted verifies the paper's output requirement: a permutation of
// the input, each PE locally sorted, and no element on PE i larger than
// any element on PE i+1.
func checkSorted(t *testing.T, locals, outs [][]int) {
	t.Helper()
	var wantAll, gotAll []int
	for _, l := range locals {
		wantAll = append(wantAll, l...)
	}
	prevMax := 0
	first := true
	for rank, out := range outs {
		if !sort.IntsAreSorted(out) {
			t.Fatalf("PE %d output not locally sorted", rank)
		}
		if len(out) > 0 {
			if !first && out[0] < prevMax {
				t.Fatalf("PE %d starts with %d, smaller than previous PE's max %d", rank, out[0], prevMax)
			}
			prevMax = out[len(out)-1]
			first = false
		}
		gotAll = append(gotAll, out...)
	}
	sort.Ints(wantAll)
	sort.Ints(gotAll)
	if len(wantAll) != len(gotAll) {
		t.Fatalf("output has %d elements, input had %d", len(gotAll), len(wantAll))
	}
	for i := range wantAll {
		if wantAll[i] != gotAll[i] {
			t.Fatalf("output is not a permutation of the input (first diff at %d: %d vs %d)", i, gotAll[i], wantAll[i])
		}
	}
}

func uniformLocals(rng *rand.Rand, p, perPE, keyRange int) [][]int {
	locals := make([][]int, p)
	for i := range locals {
		loc := make([]int, perPE)
		for j := range loc {
			loc[j] = rng.Intn(keyRange)
		}
		locals[i] = loc
	}
	return locals
}

func TestPlanLevels(t *testing.T) {
	cases := []struct {
		p, k int
		want []int
	}{
		{512, 1, []int{512}},
		{512, 2, []int{32, 16}},
		{512, 3, []int{8, 4, 16}},
		{2048, 2, []int{128, 16}},
		{2048, 3, []int{16, 8, 16}},
		{8192, 2, []int{512, 16}},
		{8192, 3, []int{32, 16, 16}},
		{32768, 2, []int{2048, 16}},
		{32768, 3, []int{64, 32, 16}},
		{8, 2, []int{8}}, // too small for two levels
	}
	for _, tc := range cases {
		got := PlanLevels(tc.p, tc.k)
		if len(got) != len(tc.want) {
			t.Errorf("PlanLevels(%d,%d) = %v, want %v", tc.p, tc.k, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("PlanLevels(%d,%d) = %v, want %v", tc.p, tc.k, got, tc.want)
				break
			}
		}
	}
}

func TestAMSSortLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		for _, k := range []int{1, 2, 3} {
			locals := uniformLocals(rng, p, 50, 1<<20)
			outs, stats := runSorter(p, locals, Config{Levels: k, Seed: 7}, AMSSort[int])
			checkSorted(t, locals, outs)
			if stats[0].TotalNS <= 0 && p > 1 {
				t.Errorf("p=%d k=%d: no time elapsed", p, k)
			}
		}
	}
}

func TestRLMSortLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		for _, k := range []int{1, 2, 3} {
			locals := uniformLocals(rng, p, 50, 1<<20)
			outs, _ := runSorter(p, locals, Config{Levels: k, Seed: 8}, RLMSort[int])
			checkSorted(t, locals, outs)
		}
	}
}

// TestRLMPerfectBalance: RLM-sort's output sizes differ by at most one.
func TestRLMPerfectBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, p := range []int{2, 4, 8, 16} {
		locals := uniformLocals(rng, p, 37, 1000) // duplicates likely
		outs, _ := runSorter(p, locals, Config{Levels: 2, Seed: 9}, RLMSort[int])
		minL, maxL := len(outs[0]), len(outs[0])
		for _, o := range outs {
			if len(o) < minL {
				minL = len(o)
			}
			if len(o) > maxL {
				maxL = len(o)
			}
		}
		if maxL-minL > 1 {
			t.Errorf("p=%d: RLM output sizes range %d..%d (want ≤1 spread)", p, minL, maxL)
		}
		checkSorted(t, locals, outs)
	}
}

// TestRLMBalanceWithHeavyDuplicates: perfect splitting must hold even
// when almost all keys collide (the multiselect tie-breaking case).
func TestRLMBalanceWithHeavyDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	p := 8
	locals := uniformLocals(rng, p, 64, 3)
	outs, _ := runSorter(p, locals, Config{Levels: 2, Seed: 10}, RLMSort[int])
	checkSorted(t, locals, outs)
	for rank, o := range outs {
		if len(o) != 64 {
			t.Errorf("PE %d has %d elements, want exactly 64", rank, len(o))
		}
	}
}

// TestAMSTieBreakBalance: Appendix-D tie-breaking keeps AMS-sort's
// balance guarantee on adversarial duplicate inputs, on every
// classification path (keyed, derived prefix, coarse prefix, plain
// comparator) and at one and two levels. The four paths must compute
// the same bucket function — byte-identical per-PE outputs — and the
// TieBreak field must be the no-op it is documented to be.
func TestAMSTieBreakBalance(t *testing.T) {
	const p, perPE = 16, 200
	rng := rand.New(rand.NewSource(55))
	inputs := map[string][][]int{
		"all-equal": make([][]int, p),
		"two-value": uniformLocals(rng, p, perPE, 2),
		"16-key":    uniformLocals(rng, p, perPE, 16),
		"plateaus":  make([][]int, p),
	}
	for r := 0; r < p; r++ {
		eq, plat := make([]int, perPE), make([]int, perPE)
		for j := range eq {
			eq[j] = 7
			plat[j] = (r*perPE + j) / 150 // sorted, plateaus straddling PEs
		}
		inputs["all-equal"][r], inputs["plateaus"][r] = eq, plat
	}
	hooks := []struct {
		name string
		cfg  Config
	}{
		{"key", Config{Key: func(x int) uint64 { return uint64(x) }}},
		{"derived", Config{}},
		{"coarse", Config{Prefix: func(x int) uint64 { return uint64(x) >> 2 }}},
		{"noprefix", Config{NoPrefix: true}},
	}
	for name, locals := range inputs {
		for _, levels := range []int{1, 2} {
			var ref [][]int
			for _, h := range hooks {
				cfg := h.cfg
				cfg.Levels, cfg.Seed = levels, 11
				if levels == 2 {
					cfg.Rs = []int{4, 4} // PlanLevels keeps p = 16 on one level
				}
				outs, stats := runSorter(p, locals, cfg, AMSSort[int])
				checkSorted(t, locals, outs)
				for rank, o := range outs {
					if len(o) > 3*perPE {
						t.Errorf("%s levels=%d %s: PE %d holds %d elements (n/p=%d)", name, levels, h.name, rank, len(o), perPE)
					}
				}
				for rank, st := range stats {
					if st.MaxImbalance > 3 {
						t.Errorf("%s levels=%d %s: PE %d imbalance %.2f > 3", name, levels, h.name, rank, st.MaxImbalance)
					}
				}
				if ref == nil {
					ref = outs
					cfg.TieBreak = !cfg.TieBreak
					if off, _ := runSorter(p, locals, cfg, AMSSort[int]); !reflect.DeepEqual(off, outs) {
						t.Errorf("%s levels=%d: Config.TieBreak changes the output", name, levels)
					}
				} else if !reflect.DeepEqual(outs, ref) {
					t.Errorf("%s levels=%d: %s path output differs from %s", name, levels, h.name, hooks[0].name)
				}
			}
		}
	}
}

func TestAMSImbalanceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	p := 32
	locals := uniformLocals(rng, p, 200, 1<<30)
	for _, b := range []int{4, 16, 64} {
		outs, stats := runSorter(p, locals, Config{Levels: 2, Seed: 12, Overpartition: b, Oversampling: 4}, AMSSort[int])
		checkSorted(t, locals, outs)
		// Lemma 2: larger b (overpartitioning) keeps groups near n/r.
		if stats[0].MaxImbalance > 2.0 {
			t.Errorf("b=%d: level imbalance %f > 2", b, stats[0].MaxImbalance)
		}
	}
}

func TestSortersEdgeCases(t *testing.T) {
	for name, fn := range map[string]sorterFn{"AMS": AMSSort[int], "RLM": RLMSort[int]} {
		// Empty everywhere.
		outs, _ := runSorter(4, [][]int{{}, {}, {}, {}}, Config{Levels: 2, Seed: 1}, fn)
		checkSorted(t, [][]int{{}, {}, {}, {}}, outs)
		// Fewer elements than PEs.
		locals := [][]int{{5}, {}, {3}, {}}
		outs, _ = runSorter(4, locals, Config{Levels: 1, Seed: 2}, fn)
		checkSorted(t, locals, outs)
		// All data on one PE.
		rng := rand.New(rand.NewSource(57))
		locals = [][]int{make([]int, 200), {}, {}, {}, {}, {}, {}, {}}
		for i := range locals[0] {
			locals[0][i] = rng.Intn(1000)
		}
		outs, _ = runSorter(8, locals, Config{Levels: 2, Seed: 3}, fn)
		checkSorted(t, locals, outs)
		// Already sorted / reverse sorted inputs.
		locals = make([][]int, 4)
		for i := range locals {
			loc := make([]int, 30)
			for j := range loc {
				loc[j] = i*1000 + j
			}
			locals[i] = loc
		}
		outs, _ = runSorter(4, locals, Config{Levels: 2, Seed: 4}, fn)
		checkSorted(t, locals, outs)
		_ = name
	}
}

func TestSortersAllDeliveryStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	p := 12
	locals := uniformLocals(rng, p, 40, 1<<16)
	for _, strat := range []delivery.Strategy{delivery.Simple, delivery.Randomized, delivery.RandomizedAdvanced, delivery.Deterministic} {
		cfg := Config{Levels: 2, Seed: 13, Delivery: delivery.Options{Strategy: strat}}
		outs, _ := runSorter(p, locals, cfg, AMSSort[int])
		checkSorted(t, locals, outs)
		outs, _ = runSorter(p, locals, cfg, RLMSort[int])
		checkSorted(t, locals, outs)
	}
}

func TestSortersExplicitRs(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	p := 24
	locals := uniformLocals(rng, p, 25, 1<<16)
	cfg := Config{Levels: 2, Rs: []int{6, 4}, Seed: 14}
	outs, stats := runSorter(p, locals, cfg, AMSSort[int])
	checkSorted(t, locals, outs)
	if stats[0].Levels != 2 {
		t.Errorf("expected 2 levels, got %d", stats[0].Levels)
	}
}

func TestParallelGroupingAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	p := 16
	locals := uniformLocals(rng, p, 60, 1<<16)
	seq, _ := runSorter(p, locals, Config{Levels: 2, Seed: 15}, AMSSort[int])
	par, _ := runSorter(p, locals, Config{Levels: 2, Seed: 15, ParallelGrouping: true}, AMSSort[int])
	for rank := range seq {
		if len(seq[rank]) != len(par[rank]) {
			t.Fatalf("PE %d: sequential and parallel grouping disagree (%d vs %d elements)",
				rank, len(seq[rank]), len(par[rank]))
		}
		for i := range seq[rank] {
			if seq[rank][i] != par[rank][i] {
				t.Fatalf("PE %d: outputs differ at %d", rank, i)
			}
		}
	}
}

// TestSortersSharedBackingArray: all ranks' inputs cut from ONE array
// with two-index slicing, so every rank's slice has spare capacity
// backed by the NEXT rank's live data. The consumed-input contract
// covers a slice's elements, not memory past its length: buffer
// recycling must capacity-clamp on retire or a rank that receives more
// than it sent appends into its neighbour's region (the localScratch
// grab/retire invariant).
func TestSortersSharedBackingArray(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const p, perPE = 6, 120
	for name, fn := range map[string]sorterFn{"AMS": AMSSort[int], "RLM": RLMSort[int]} {
		backing := make([]int, p*perPE)
		for i := range backing {
			backing[i] = rng.Intn(1 << 16)
		}
		locals := make([][]int, p)
		ref := make([][]int, p)
		for rank := 0; rank < p; rank++ {
			locals[rank] = backing[rank*perPE : (rank+1)*perPE] // spare cap into rank+1
			ref[rank] = append([]int(nil), locals[rank]...)
		}
		m := sim.NewDefault(p)
		outs := make([][]int, p)
		m.Run(func(pe *sim.PE) {
			// Explicit Rs forces two real delivery levels at this small
			// p (PlanLevels would collapse p ≤ 16 to one level), so the
			// level-1 grab actually recycles the retired level-0 input.
			outs[pe.Rank()], _ = fn(sim.World(pe), locals[pe.Rank()], intLess,
				Config{Levels: 2, Rs: []int{2, 3}, Seed: 17})
		})
		checkSorted(t, ref, outs)
		_ = name
	}
}

// TestDeterministicVirtualTime: identical runs give identical clocks.
func TestDeterministicVirtualTime(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := 8
	locals := uniformLocals(rng, p, 50, 1000)
	for name, fn := range map[string]sorterFn{"AMS": AMSSort[int], "RLM": RLMSort[int]} {
		run := func() int64 {
			outs, stats := runSorter(p, locals, Config{Levels: 2, Seed: 16}, fn)
			_ = outs
			return stats[0].TotalNS
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: virtual time differs across runs: %d vs %d", name, a, b)
		}
	}
}

// TestPhaseTimesAddUp: phases are measured between barriers, so their sum
// must not exceed the total (and must cover most of it).
func TestPhaseTimesAddUp(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	p := 16
	locals := uniformLocals(rng, p, 100, 1<<20)
	for name, fn := range map[string]sorterFn{"AMS": AMSSort[int], "RLM": RLMSort[int]} {
		_, stats := runSorter(p, locals, Config{Levels: 2, Seed: 17}, fn)
		var sum int64
		for _, ns := range stats[0].PhaseNS {
			if ns < 0 {
				t.Errorf("%s: negative phase time", name)
			}
			sum += ns
		}
		if sum > stats[0].TotalNS {
			t.Errorf("%s: phase sum %d exceeds total %d", name, sum, stats[0].TotalNS)
		}
		if sum < stats[0].TotalNS/2 {
			t.Errorf("%s: phases (%d) cover less than half the total (%d)", name, sum, stats[0].TotalNS)
		}
	}
}

// TestMultiLevelFewerStartups is the paper's core claim: with small n/p
// and large p, the 2-level algorithm beats the 1-level algorithm because
// it trades k data passes for O(k·ᵏ√p) startups.
func TestMultiLevelFewerStartups(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := 64
	locals := uniformLocals(rng, p, 100, 1<<30)
	_, s1 := runSorter(p, locals, Config{Levels: 1, Seed: 18}, AMSSort[int])
	_, s2 := runSorter(p, locals, Config{Levels: 2, Seed: 18}, AMSSort[int])
	if s2[0].TotalNS >= s1[0].TotalNS {
		t.Errorf("2-level AMS (%d ns) not faster than 1-level (%d ns) at p=%d, n/p=100",
			s2[0].TotalNS, s1[0].TotalNS, p)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseSplitterSelection: "splitter selection",
		PhaseBucketProcessing:  "bucket processing",
		PhaseDataDelivery:      "data delivery",
		PhaseLocalSort:         "local sort",
	}
	for ph, s := range want {
		if ph.String() != s {
			t.Errorf("Phase(%d).String() = %q want %q", ph, ph.String(), s)
		}
	}
}
