package coll

import (
	"testing"

	"pmsort/internal/sim"
)

func TestAllreduceSumI64Correct(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
		for _, l := range []int{1, 3, 8, 33, 257} {
			m := sim.NewDefault(p)
			m.Run(func(pe *sim.PE) {
				c := sim.World(pe)
				vec := make([]int64, l)
				for i := range vec {
					vec[i] = int64((pe.Rank() + 1) * (i + 1))
				}
				got := AllreduceSumI64(c, vec)
				sumRanks := int64(p) * int64(p+1) / 2
				for i := range got {
					want := sumRanks * int64(i+1)
					if got[i] != want {
						t.Fatalf("p=%d l=%d rank=%d: got[%d]=%d want %d", p, l, pe.Rank(), i, got[i], want)
					}
				}
			})
		}
	}
}

func TestAllreduceSumI64DoesNotAliasInput(t *testing.T) {
	m := sim.NewDefault(4)
	m.Run(func(pe *sim.PE) {
		c := sim.World(pe)
		vec := []int64{1, 2, 3, 4}
		got := AllreduceSumI64(c, vec)
		got[0] = -999 // mutating the result must not corrupt siblings
		if vec[0] != 1 {
			t.Errorf("input mutated: %v", vec)
		}
	})
}

// TestRabenseifnerCheaperThanTree: for long vectors on many PEs the
// recursive-halving algorithm must beat the binomial tree in simulated
// time (2ℓβ vs ℓβ·log p).
func TestRabenseifnerCheaperThanTree(t *testing.T) {
	const p, l = 64, 1 << 14
	run := func(useRab bool) int64 {
		m := sim.New(p, sim.FlatTopology(), sim.DefaultCost())
		res := m.Run(func(pe *sim.PE) {
			c := sim.World(pe)
			vec := make([]int64, l)
			if useRab {
				AllreduceSumI64(c, vec)
			} else {
				Allreduce(c, vec, int64(l), func(a, b []int64) []int64 {
					out := make([]int64, len(a))
					for i := range a {
						out[i] = a[i] + b[i]
					}
					return out
				})
			}
		})
		return res.MaxTime
	}
	rab, tree := run(true), run(false)
	if rab >= tree {
		t.Errorf("Rabenseifner (%d ns) not faster than tree (%d ns) for l=%d p=%d", rab, tree, l, p)
	}
}
