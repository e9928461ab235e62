package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pmsort/internal/delivery"
	"pmsort/internal/seq"
	"pmsort/internal/sim"
)

// TestSortersQuick fuzzes whole-sorter configurations: random machine
// sizes, data sizes, key ranges, level counts and delivery strategies,
// asserting the output contract every time.
func TestSortersQuick(t *testing.T) {
	type params struct {
		P        uint8
		PerPE    uint8
		KeyBits  uint8
		Levels   uint8
		Strategy uint8
		RLM      bool
		Seed     uint64
	}
	if err := quick.Check(func(pr params) bool {
		p := int(pr.P)%24 + 1
		perPE := int(pr.PerPE) % 64
		keyRange := 1 << (pr.KeyBits%20 + 1)
		levels := int(pr.Levels)%3 + 1
		strat := delivery.Strategy(pr.Strategy % 4)
		rng := rand.New(rand.NewSource(int64(pr.Seed)))
		locals := make([][]int, p)
		var all []int
		for i := range locals {
			loc := make([]int, perPE)
			for j := range loc {
				loc[j] = rng.Intn(keyRange)
			}
			locals[i] = loc
			all = append(all, loc...)
		}
		cfg := Config{
			Levels:   levels,
			Seed:     pr.Seed,
			Delivery: delivery.Options{Strategy: strat},
		}
		m := sim.NewDefault(p)
		outs := make([][]int, p)
		m.Run(func(pe *sim.PE) {
			c := sim.World(pe)
			if pr.RLM {
				outs[pe.Rank()], _ = RLMSort(c, locals[pe.Rank()], intLess, cfg)
			} else {
				outs[pe.Rank()], _ = AMSSort(c, locals[pe.Rank()], intLess, cfg)
			}
		})
		// Contract: locally sorted, globally ordered, permutation.
		var got []int
		prevMax, started := 0, false
		for _, out := range outs {
			if !sort.IntsAreSorted(out) {
				return false
			}
			if len(out) > 0 {
				if started && out[0] < prevMax {
					return false
				}
				prevMax = out[len(out)-1]
				started = true
			}
			got = append(got, out...)
		}
		sort.Ints(all)
		sort.Ints(got)
		if len(all) != len(got) {
			return false
		}
		for i := range all {
			if all[i] != got[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyMatters: making the inter-island link slower must slow
// down a sort that crosses islands but leave an intra-island sort alone.
func TestHierarchyMatters(t *testing.T) {
	topo := sim.Topology{CoresPerNode: 4, NodesPerIsland: 2} // 8 PEs/island
	slowCost := sim.DefaultCost()
	slowCost.Beta[sim.LinkCross] *= 50

	run := func(p int, cost sim.CostModel) int64 {
		rng := rand.New(rand.NewSource(4))
		locals := make([][]int, p)
		for i := range locals {
			loc := make([]int, 200)
			for j := range loc {
				loc[j] = rng.Intn(1 << 20)
			}
			locals[i] = loc
		}
		m := sim.New(p, topo, cost)
		var total int64
		m.Run(func(pe *sim.PE) {
			_, st := AMSSort(sim.World(pe), locals[pe.Rank()], intLess, Config{Levels: 2, Seed: 5})
			if pe.Rank() == 0 {
				total = st.TotalNS
			}
		})
		return total
	}
	// 16 PEs = 2 islands: slower cross links must hurt.
	if fast, slow := run(16, sim.DefaultCost()), run(16, slowCost); slow <= fast {
		t.Errorf("cross-island slowdown invisible: %d vs %d", fast, slow)
	}
	// 8 PEs = 1 island: cross-link cost must be irrelevant.
	if fast, slow := run(8, sim.DefaultCost()), run(8, slowCost); slow != fast {
		t.Errorf("intra-island sort affected by cross-island cost: %d vs %d", fast, slow)
	}
}

// TestEffectiveBCaps: the bucket-vector memory guard.
func TestEffectiveBCaps(t *testing.T) {
	if b := effectiveB(Config{Overpartition: 16}, 512); b != 16 {
		t.Errorf("b at r=512: %d want 16", b)
	}
	if b := effectiveB(Config{Overpartition: 16}, 8192); b != 4 {
		t.Errorf("b at r=8192: %d want 4 (capped)", b)
	}
	if b := effectiveB(Config{}, 64); b != 16 {
		t.Errorf("default b: %d want 16", b)
	}
	if b := effectiveB(Config{Overpartition: 1}, 1<<16); b != 1 {
		t.Errorf("b floor: %d want 1", b)
	}
}

// TestEffectiveBFitsInPlacePartition: every AMS level with r ≤ 65536
// groups has at most seq.MaxInPlaceBuckets buckets, whatever the
// requested overpartitioning, so amsPartition always partitions in
// place (amsLevel rejects the larger r outright).
func TestEffectiveBFitsInPlacePartition(t *testing.T) {
	for _, op := range []int{0, 16, 1 << 20} {
		cfg := Config{Overpartition: op}
		for r := 1; r <= seq.MaxInPlaceBuckets; r++ {
			if nb := effectiveB(cfg, r) * r; nb > seq.MaxInPlaceBuckets {
				t.Fatalf("Overpartition=%d r=%d: b·r = %d > %d", op, r, nb, seq.MaxInPlaceBuckets)
			}
		}
	}
}

// TestLevelRClamps: group counts never exceed the communicator size and
// the last level always splits into singletons.
func TestLevelRClamps(t *testing.T) {
	plan := []int{100, 16}
	if r := levelR(Config{}, plan, 0, 12); r != 12 {
		t.Errorf("clamped r = %d want 12", r)
	}
	if r := levelR(Config{}, plan, 1, 7); r != 7 {
		t.Errorf("last level r = %d want comm size 7", r)
	}
	if r := levelR(Config{}, plan, 5, 3); r != 3 {
		t.Errorf("beyond-plan r = %d want comm size 3", r)
	}
}
