// Package workload generates the distributed inputs for the experiments:
// the paper's weak-scaling benchmark uses uniformly random 64-bit
// integers (§7); skewed, duplicate-heavy, (almost-)sorted, and
// adversarially unbalanced inputs exercise robustness beyond it.
package workload

import (
	"math"

	"pmsort/internal/prng"
)

// Kind selects an input distribution.
type Kind int

const (
	// Uniform draws independent uniform uint64 keys (the paper's input).
	Uniform Kind = iota
	// Skewed draws keys as (2⁶³)·u⁸ — heavy mass at small keys.
	Skewed
	// DupHeavy draws from only 16 distinct keys.
	DupHeavy
	// Sorted produces globally sorted input (rank-major).
	Sorted
	// Reverse produces globally reverse-sorted input.
	Reverse
	// AlmostSorted is Sorted with 1% random local swaps.
	AlmostSorted
	// OnePE places all n elements on PE 0.
	OnePE
)

// kindByName is the one name table of the distributions: the CLIs, the
// job API, and String all read it.
var kindByName = map[string]Kind{
	"uniform":       Uniform,
	"skewed":        Skewed,
	"dup-heavy":     DupHeavy,
	"sorted":        Sorted,
	"reverse":       Reverse,
	"almost-sorted": AlmostSorted,
	"one-pe":        OnePE,
}

// ParseKind maps a distribution name (as printed by String) to its Kind.
func ParseKind(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// String names the distribution.
func (k Kind) String() string {
	for name, v := range kindByName {
		if v == k {
			return name
		}
	}
	return "invalid"
}

// Local generates PE `rank`'s slice of a p-PE input with perPE elements
// per PE (except OnePE, which returns p·perPE elements on rank 0).
// Generation is deterministic in (kind, seed, p, perPE, rank) and
// independent across ranks, so each PE can generate its own input.
func Local(kind Kind, seed uint64, p, perPE, rank int) []uint64 {
	rng := prng.New(seed).Fork(uint64(rank) * 0x9e3779b97f4a7c15)
	switch kind {
	case Uniform:
		out := make([]uint64, perPE)
		for i := range out {
			out[i] = rng.Next()
		}
		return out
	case Skewed:
		out := make([]uint64, perPE)
		for i := range out {
			u := rng.Float64()
			out[i] = uint64(math.Pow(u, 8) * float64(1<<63))
		}
		return out
	case DupHeavy:
		out := make([]uint64, perPE)
		for i := range out {
			out[i] = rng.Uint64n(16)
		}
		return out
	case Sorted:
		out := make([]uint64, perPE)
		for i := range out {
			out[i] = uint64(rank)*uint64(perPE) + uint64(i)
		}
		return out
	case Reverse:
		out := make([]uint64, perPE)
		total := uint64(p) * uint64(perPE)
		for i := range out {
			out[i] = total - (uint64(rank)*uint64(perPE) + uint64(i)) - 1
		}
		return out
	case AlmostSorted:
		out := Local(Sorted, seed, p, perPE, rank)
		for s := 0; s < perPE/100; s++ {
			i, j := rng.Intn(perPE), rng.Intn(perPE)
			out[i], out[j] = out[j], out[i]
		}
		return out
	case OnePE:
		if rank != 0 {
			return nil
		}
		out := make([]uint64, p*perPE)
		for i := range out {
			out[i] = rng.Next()
		}
		return out
	}
	panic("workload: unknown kind")
}
