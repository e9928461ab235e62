// Package core implements the paper's two multi-level sorting
// algorithms: AMS-sort (adaptive multi-level sample sort with
// overpartitioning, §6) and RLM-sort (recurse-last multiway mergesort,
// §5), on top of the building blocks in internal/{msel,fwis,delivery,
// grouping,seq,coll,sim}.
package core

import (
	"fmt"

	"pmsort/internal/coll"
	"pmsort/internal/delivery"
	"pmsort/internal/fwis"
	"pmsort/internal/msel"
	"pmsort/internal/wire"
)

// Phase identifies the four measured algorithm phases of §7.1. A barrier
// precedes every phase; timings accumulate over all recursion levels.
type Phase int

const (
	// PhaseSplitterSelection covers sampling + sample sort + splitter
	// broadcast (AMS) or multisequence selection (RLM).
	PhaseSplitterSelection Phase = iota
	// PhaseBucketProcessing covers local partitioning + bucket grouping
	// (AMS) or multiway merging of received runs (RLM).
	PhaseBucketProcessing
	// PhaseDataDelivery covers the bulk data exchange.
	PhaseDataDelivery
	// PhaseLocalSort covers the base-case local sort (AMS) or the initial
	// local sort (RLM).
	PhaseLocalSort
	// NumPhases is the number of phases.
	NumPhases
)

// String names the phase like the paper's figures.
func (ph Phase) String() string {
	switch ph {
	case PhaseSplitterSelection:
		return "splitter selection"
	case PhaseBucketProcessing:
		return "bucket processing"
	case PhaseDataDelivery:
		return "data delivery"
	case PhaseLocalSort:
		return "local sort"
	}
	return "invalid"
}

// Stats reports one PE's view of a sorting run.
type Stats struct {
	// PhaseNS[ph] is the accumulated virtual time of phase ph over all
	// levels, measured between synchronized barriers.
	PhaseNS [NumPhases]int64
	// LevelPhaseNS[level][ph] breaks PhaseNS down by recursion level:
	// summing a phase's column over all levels reproduces PhaseNS[ph]
	// exactly (both are fed from the same barrier deltas). RLM's initial
	// local sort is charged to level 0; a level's trailing local work
	// (AMS base case, last-level radix) is charged to the level it ran
	// on. Always populated — Stats stays the cheap always-on summary.
	LevelPhaseNS [][NumPhases]int64
	// PhaseBytes[ph] estimates the bytes each phase put through memory
	// or the network on this PE: sample bytes for splitter selection,
	// classified/merged bytes for bucket processing, received bytes for
	// data delivery, sorted bytes for the local sort.
	PhaseBytes [NumPhases]int64
	// TotalNS is the virtual time from start to finish.
	TotalNS int64
	// MaxImbalance is the largest observed max-group-load / avg-group-load
	// ratio over all levels (AMS only; 1.0 means perfectly balanced).
	MaxImbalance float64
	// Levels is the number of recursion levels executed.
	Levels int
}

// addLevel accumulates ns into both the flat and the per-level phase
// breakdown, growing the level table on first touch of a level.
func (s *Stats) addLevel(level int, ph Phase, ns int64) {
	s.PhaseNS[ph] += ns
	for len(s.LevelPhaseNS) <= level {
		s.LevelPhaseNS = append(s.LevelPhaseNS, [NumPhases]int64{})
	}
	s.LevelPhaseNS[level][ph] += ns
}

// Config tunes the sorters. Field order follows the documented
// narrative (shape knobs, then hooks).
type Config struct {
	// Levels is the number of recursion levels k (≥1). 0 means 1.
	Levels int
	// Rs optionally fixes the number of groups per level (length Levels;
	// the last entry is effectively the remaining group size). nil picks
	// PlanLevels(p, Levels).
	Rs []int
	// Oversampling is the factor a; 0 picks the paper's experimental
	// default a = 1.6·log₁₀(n) (§7.2).
	Oversampling float64
	// Overpartition is the factor b; 0 picks the paper's default 16.
	// The effective b is capped so that b·r stays manageable.
	Overpartition int
	// Delivery configures the data redistribution (§4.3). The zero value
	// is the simple prefix-sum delivery with the 1-factor exchange, the
	// configuration of the paper's experiments.
	Delivery delivery.Options
	// Seed drives sampling and all randomized subroutines.
	Seed uint64
	// TieBreak enables the implicit (PE, position) tie-breaking of
	// Appendix D: equality buckets in the partitioner plus lexicographic
	// comparisons only for elements equal to a splitter. Without it,
	// heavily duplicated keys can defeat AMS-sort's balance guarantee.
	TieBreak bool
	// ParallelGrouping uses the parallelized optimal-L search of
	// Appendix C instead of the sequential one.
	ParallelGrouping bool
	// Encoder optionally supplies a custom wire codec for the element
	// type on serializing backends (the TCP cluster). Elements made of
	// scalars, strings, slices, and plain structs are serialized
	// automatically; types the structural codec cannot handle (pointers
	// into shared state, maps, interfaces) need this hook. Ignored by
	// the simulated and native backends.
	Encoder wire.Encoder
	// Key optionally declares the element order to be the natural order
	// of a uint64 key: set it to a func(E) uint64 (for the sorted
	// element type E) satisfying less(a, b) == (Key(a) < Key(b)) for
	// all a, b. When set, the local-phase kernels switch from generic
	// pdqsort to an in-place MSD radix sort on the key
	// (seq.SortKeyedInPlace) — the cache-efficient fast path that makes
	// native strong scaling beat a one-core comparison sort on
	// integer-keyed data. A hook of any other type (or a mismatched
	// element type) is ignored. The keyed kernel is deterministic but
	// NOT stable on equal keys — the same (lack of) guarantee as the
	// comparator kernel, and under the contract above equal-key
	// elements are order-indistinguishable anyway.
	Key any
	// Prefix optionally supplies an order-preserving uint64 prefix of
	// the element order for the comparator path: a func(E) uint64 with
	//
	//	less(a, b)            ⇒  Prefix(a) ≤ Prefix(b), and
	//	Prefix(a) < Prefix(b) ⇒  less(a, b)
	//
	// (comparing prefixes first and calling less only on prefix ties
	// must decide every pair exactly like less). Unlike Key it need not
	// be injective: pack whatever most-significant order bits fit —
	// sign-flipped integers, totally-ordered float bits, a struct's
	// leading key field, a string's first 8 bytes (DESIGN.md §11) — and
	// the kernels run branch-free on the prefix, falling back to the
	// comparator only inside equal-prefix runs. When unset, Key doubles
	// as the prefix on keyed runs, and for ordered scalar and string
	// element types a natural-order prefix is derived automatically
	// (assuming less is the type's ascending natural order; a sampled
	// entry guard drops a derived hook that contradicts less, and
	// NoPrefix opts out entirely). A hook whose type does not match the
	// element type is rejected at sort entry. The prefix path is
	// byte-identical to the plain comparator path.
	Prefix any
	// NoPrefix disables the comparator path's prefix cache (explicit
	// Prefix hooks, Key reuse, and automatic derivation alike): every
	// local kernel then runs on the comparator only. Output is
	// unchanged either way.
	NoPrefix bool
}

// keyFor extracts the Config.Key hook for element type E (nil when
// unset or set for a different element type).
func keyFor[E any](cfg Config) func(E) uint64 {
	key, _ := cfg.Key.(func(E) uint64)
	return key
}

// prefixFor resolves the comparator path's prefix hook for element
// type E: the explicit Config.Prefix when set — a hook whose type does
// not match the element type is a configuration error and rejected
// here, at sort entry, with the same error shape as the other Config
// checks (instead of panicking mid-classify) — else Config.Key (a full
// order key is the strongest possible prefix), else a derived
// natural-order prefix for ordered element types. NoPrefix disables
// all three.
func prefixFor[E any](cfg Config) func(E) uint64 {
	if cfg.Prefix != nil {
		pf, ok := cfg.Prefix.(func(E) uint64)
		if !ok {
			var zero E
			panic(fmt.Sprintf("core: Config.Prefix is %T, want func(%T) uint64", cfg.Prefix, zero))
		}
		if cfg.NoPrefix {
			return nil
		}
		return pf
	}
	if cfg.NoPrefix {
		return nil
	}
	if key := keyFor[E](cfg); key != nil {
		return key
	}
	return derivedPrefix[E]()
}

// registerWire registers every payload type the multi-level sorters can
// put on a serializing backend for element type E: the elements and
// their tagged sample/splitter wrappers, the collective shapes of both,
// and the building blocks' own payloads. Called at every sort entry
// point — registration is idempotent and costs a few map lookups.
func registerWire[E any](enc wire.Encoder) {
	if enc != nil {
		wire.RegisterEncoder[E](enc)
	}
	coll.RegisterWire[E]()
	coll.RegisterWire[tagged[E]]()
	fwis.RegisterWire[tagged[E]]()
	delivery.RegisterWire[E]()
	msel.RegisterWire[E]()
}

// maxBucketsPerLevel caps b·r (the bucket-size vectors move through
// all-reduces; see DESIGN.md §5).
const maxBucketsPerLevel = 1 << 15

// effectiveB returns the overpartitioning factor actually used for a
// level with r groups.
func effectiveB(cfg Config, r int) int {
	b := cfg.Overpartition
	if b <= 0 {
		b = 16
	}
	if cap := maxBucketsPerLevel / r; b > cap {
		b = cap
	}
	if b < 1 {
		b = 1
	}
	return b
}

// PlanLevels returns per-level group counts for p PEs and k levels,
// following the scheme of Table 1: the second-to-last level forms
// node-sized groups of 16 PEs (so the last level communicates only
// node-internally), and for k=3 the first level splits into
// 2^⌈log₂(p/16)/2⌉ groups. k=1 is the classic single-level algorithm
// with r = p. The plan generalizes to any p and k by splitting the
// remaining log₂(p/16) bits into k-1 near-equal parts, larger first.
func PlanLevels(p, k int) []int {
	if k <= 1 || p <= 16 {
		return []int{p}
	}
	bits := 0
	for v := 1; v < (p+15)/16; v <<= 1 {
		bits++
	}
	parts := k - 1
	rs := make([]int, 0, k)
	rem := bits
	for i := 0; i < parts; i++ {
		share := (rem + (parts - i - 1)) / (parts - i) // ceil of what's left
		rs = append(rs, 1<<share)
		rem -= share
	}
	return append(rs, 16)
}

// levelR returns the group count for the given level of the recursion,
// clamped to the current communicator size; the last level always splits
// into singleton groups.
func levelR(cfg Config, plan []int, level, commSize int) int {
	if level >= len(plan)-1 {
		return commSize
	}
	r := plan[level]
	if r > commSize {
		r = commSize
	}
	if r < 1 {
		r = 1
	}
	return r
}

func validate(cfg Config) Config {
	if cfg.Levels <= 0 {
		cfg.Levels = 1
	}
	if cfg.Rs != nil && len(cfg.Rs) != cfg.Levels {
		panic(fmt.Sprintf("core: Config.Rs has %d entries for %d levels", len(cfg.Rs), cfg.Levels))
	}
	return cfg
}
