package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/sim"
)

// integer is every element type whose derived prefix is exact.
type integer interface {
	~uint64 | ~uint | ~uintptr | ~uint32 | ~uint16 | ~uint8 |
		~int64 | ~int | ~int32 | ~int16 | ~int8
}

// exactPlans are the level plans the exact-hook tests run on p = 8: one
// level, and two levels of two groups each.
var exactPlans = []Config{{Levels: 1, Seed: 21}, {Levels: 2, Rs: []int{2, 2}, Seed: 21}}

// simSort runs one sorter on sim with private copies of locals.
func simSort[E any](locals [][]E, less func(a, b E) bool, cfg Config, fn func(comm.Communicator, []E, func(a, b E) bool, Config) ([]E, *Stats)) [][]E {
	outs := make([][]E, len(locals))
	sim.NewDefault(len(locals)).Run(func(pe *sim.PE) {
		outs[pe.Rank()], _ = fn(sim.World(pe), slices.Clone(locals[pe.Rank()]), less, cfg)
	})
	return outs
}

// sorters names the two algorithms the exact-hook tests cover.
func sorters[E any]() map[string]func(comm.Communicator, []E, func(a, b E) bool, Config) ([]E, *Stats) {
	return map[string]func(comm.Communicator, []E, func(a, b E) bool, Config) ([]E, *Stats){
		"ams": AMSSort[E], "rlm": RLMSort[E],
	}
}

// checkExactHook sorts uniform, 16-key and all-equal inputs of one
// integer type under its derived hook, and checks the output is sorted
// and byte-identical to NoPrefix and to Config.Key with the key widened
// to uint64: the derived hook is exact, so the run takes the keyed
// kernels, and equal keys are equal bytes, so no kernel can tell.
func checkExactHook[E integer](t *testing.T) {
	var zero E
	name := fmt.Sprintf("%T", zero)
	if pf, exact := derivedPrefix[E](); pf == nil || !exact {
		t.Fatalf("%s: derived prefix is not exact", name)
	}
	signed := ^zero < 0
	key := func(x E) uint64 {
		if signed {
			return uint64(x) ^ 1<<63
		}
		return uint64(x)
	}
	less := func(a, b E) bool { return a < b }
	const p, perPE = 8, 300
	rng := rand.New(rand.NewSource(int64(len(name))))
	dict := make([]E, 16)
	for i := range dict {
		dict[i] = E(rng.Uint64())
	}
	draws := map[string]func() E{
		"uniform":   func() E { return E(rng.Uint64()) },
		"16-key":    func() E { return dict[rng.Intn(len(dict))] },
		"all-equal": func() E { return 7 },
	}
	for input, draw := range draws {
		locals := make([][]E, p)
		for r := range locals {
			locals[r] = make([]E, perPE)
			for i := range locals[r] {
				locals[r][i] = draw()
			}
		}
		for algo, fn := range sorters[E]() {
			for _, plan := range exactPlans {
				derived := simSort(locals, less, plan, fn)
				if all := slices.Concat(derived...); len(all) != p*perPE || !slices.IsSorted(all) {
					t.Fatalf("%s %s %s levels=%d: output not sorted", name, input, algo, plan.Levels)
				}
				noPrefix, keyed := plan, plan
				noPrefix.NoPrefix = true
				keyed.Key = key
				if got := simSort(locals, less, noPrefix, fn); !reflect.DeepEqual(got, derived) {
					t.Errorf("%s %s %s levels=%d: derived hook differs from NoPrefix", name, input, algo, plan.Levels)
				}
				if got := simSort(locals, less, keyed, fn); !reflect.DeepEqual(got, derived) {
					t.Errorf("%s %s %s levels=%d: derived hook differs from Config.Key", name, input, algo, plan.Levels)
				}
			}
		}
	}
}

// TestExactHooks pins which derived hooks are exact. Every integer type
// is, and its output matches NoPrefix and Config.Key byte for byte.
// float64 is not: -0.0 and +0.0 share a prefix but differ in bytes, so
// only the stable prefix-cached kernels keep them in NoPrefix's order.
// Strings are not: their prefix is their first 8 bytes, so strings
// sharing those must still be ordered by the comparator.
func TestExactHooks(t *testing.T) {
	t.Run("uint64", checkExactHook[uint64])
	t.Run("uint", checkExactHook[uint])
	t.Run("uintptr", checkExactHook[uintptr])
	t.Run("uint32", checkExactHook[uint32])
	t.Run("uint16", checkExactHook[uint16])
	t.Run("uint8", checkExactHook[uint8])
	t.Run("int64", checkExactHook[int64])
	t.Run("int", checkExactHook[int])
	t.Run("int32", checkExactHook[int32])
	t.Run("int16", checkExactHook[int16])
	t.Run("int8", checkExactHook[int8])

	const p, perPE = 8, 300
	t.Run("float64 signed zeros", func(t *testing.T) {
		less := func(a, b float64) bool { return a < b }
		rng := rand.New(rand.NewSource(5))
		locals := make([][]float64, p)
		for r := range locals {
			locals[r] = make([]float64, perPE)
			for i := range locals[r] {
				switch i % 3 {
				case 0:
					locals[r][i] = math.Copysign(0, -1)
				case 1:
					locals[r][i] = 0
				default:
					locals[r][i] = rng.NormFloat64()
				}
			}
		}
		bits := func(outs [][]float64) [][]uint64 {
			b := make([][]uint64, len(outs))
			for r, o := range outs {
				for _, x := range o {
					b[r] = append(b[r], math.Float64bits(x))
				}
			}
			return b
		}
		for algo, fn := range sorters[float64]() {
			for _, plan := range exactPlans {
				noPrefix := plan
				noPrefix.NoPrefix = true
				if !reflect.DeepEqual(bits(simSort(locals, less, plan, fn)), bits(simSort(locals, less, noPrefix, fn))) {
					t.Errorf("%s levels=%d: derived float64 hook reorders -0.0 and +0.0", algo, plan.Levels)
				}
			}
		}
	})
	t.Run("strings sharing 8 bytes", func(t *testing.T) {
		less := func(a, b string) bool { return a < b }
		rng := rand.New(rand.NewSource(6))
		locals := make([][]string, p)
		for r := range locals {
			locals[r] = make([]string, perPE)
			for i := range locals[r] {
				locals[r][i] = fmt.Sprintf("%s%05d", []string{"shared08", "shared09"}[rng.Intn(2)], rng.Intn(50000))
			}
		}
		for algo, fn := range sorters[string]() {
			for _, plan := range exactPlans {
				if all := slices.Concat(simSort(locals, less, plan, fn)...); len(all) != p*perPE || !slices.IsSorted(all) {
					t.Errorf("%s levels=%d: strings sharing their first 8 bytes come out unsorted", algo, plan.Levels)
				}
			}
		}
	})
}
