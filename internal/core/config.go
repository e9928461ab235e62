// Package core implements the paper's two multi-level sorting
// algorithms: AMS-sort (adaptive multi-level sample sort with
// overpartitioning, §6) and RLM-sort (recurse-last multiway mergesort,
// §5), on top of the building blocks in internal/{msel,fwis,delivery,
// grouping,seq,coll,sim}.
package core

import (
	"fmt"
	"unsafe"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/fwis"
	"pmsort/internal/msel"
	"pmsort/internal/obs"
	"pmsort/internal/wire"
)

// Phase identifies the four measured algorithm phases of §7.1, booked
// by a Meter; timings accumulate over all recursion levels.
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

// Stats reports one PE's view of a sorting run. A Meter writes its
// timing and byte fields, for this package's sorters and the baselines.
type Stats struct {
	// PhaseNS[ph] is the accumulated time of phase ph over all levels:
	// virtual on the simulator, wall-clock on the real backends.
	PhaseNS [NumPhases]int64
	// LevelPhaseNS[level][ph] breaks PhaseNS down by recursion level:
	// summing a phase's column over all levels reproduces PhaseNS[ph]
	// exactly (the Meter books both at once). RLM's initial local sort
	// is charged to level 0, a level's trailing local work (AMS base
	// case, last-level radix) to the level it ran on, and each
	// hc-quicksort round is a level. Always populated — Stats stays the
	// cheap always-on summary.
	LevelPhaseNS [][NumPhases]int64
	// PhaseBytes[ph] estimates the bytes each phase put through memory
	// or the network on this PE: sample bytes for splitter selection,
	// classified/merged bytes for bucket processing, received bytes for
	// data delivery, sorted bytes for the local sort.
	PhaseBytes [NumPhases]int64
	// TotalNS is the time from the run's first fence to its last.
	TotalNS int64
	// MaxImbalance is the largest observed max-group-load / avg-group-load
	// ratio over all levels (AMS only; 1.0 means perfectly balanced).
	MaxImbalance float64
	// Levels is the number of recursion levels executed.
	Levels int
}

// Meter books one PE's phases into its Stats and owns every phase
// fence (coll.TimedBarrier, the MPI_Barrier of §7.1) of the sorters.
// Fence opens an interval without booking it; Lap closes one and books
// it. Local books work timed on the PE's own clock and carves it out of
// the enclosing lap, so each nanosecond lands in one phase. It also
// carries the run's obs recorder for the spans (DESIGN.md §12).
type Meter struct {
	*Stats
	rec         *obs.Recorder
	eb          int64 // element size in bytes, for PhaseBytes
	first, last int64 // the start fence and the latest one
	carved      int64 // Local time booked since the latest fence
}

// NewMeter starts the meter of a single-level run on element type E
// with the start fence. Collective over c.
func NewMeter[E any](c comm.Communicator) *Meter {
	m := &Meter{
		Stats: &Stats{MaxImbalance: 1, Levels: 1},
		rec:   obs.From(c),
		eb:    int64(unsafe.Sizeof(*new(E))),
	}
	m.Fence(c)
	m.first = m.last
	return m
}

// Fence starts an interval that is not booked. Collective over c.
func (m *Meter) Fence(c comm.Communicator) {
	m.last, m.carved = coll.TimedBarrier(c), 0
}

// Lap fences, then books the interval since the latest fence, minus
// the time Local carved out of it, to phase ph of level; n elements
// went through the phase. Collective over c.
func (m *Meter) Lap(c comm.Communicator, level int, ph Phase, n int64) {
	t := coll.TimedBarrier(c)
	m.book(level, ph, t-m.last-m.carved, n)
	m.last, m.carved = t, 0
}

// Local books the time since t0 on this PE's own clock to phase ph of
// level and carves it out of the enclosing lap. Not collective.
func (m *Meter) Local(c comm.Communicator, level int, ph Phase, t0, n int64) {
	ns := c.Cost().Now() - t0
	m.book(level, ph, ns, n)
	m.carved += ns
}

// Total sets TotalNS to the span from the first fence to the latest
// and returns the Stats.
func (m *Meter) Total() *Stats {
	m.TotalNS = m.last - m.first
	return m.Stats
}

// book adds ns and n elements to phase ph of level, growing the level
// table on first touch of a level.
func (m *Meter) book(level int, ph Phase, ns, n int64) {
	m.PhaseNS[ph] += ns
	for len(m.LevelPhaseNS) <= level {
		m.LevelPhaseNS = append(m.LevelPhaseNS, [NumPhases]int64{})
	}
	m.LevelPhaseNS[level][ph] += ns
	m.PhaseBytes[ph] += n * m.eb
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
	// TieBreak is a no-op kept for source compatibility. AMS-sort always
	// applies the implicit (PE, position) tie-breaking of Appendix D —
	// elements equal to a splitter are spread over that key's buckets by
	// their origin — because without it heavily duplicated keys defeat
	// its balance guarantee.
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
	// all a, b. A key is an exact order hook: the local kernels then
	// work on it instead of less — the splitter-tree classification, an
	// in-place MSD radix sort at the base case and in RLM's initial sort
	// (seq.SortKeyedInPlace), the LSD radix at the last AMS level, and
	// RLM's merge, which compares keys first — the cache-efficient fast
	// path that makes native strong scaling beat a one-core comparison
	// sort on integer-keyed data. A hook of any other type (or a
	// mismatched element type) is ignored. The keyed kernels are
	// deterministic but NOT stable on equal keys — the same (lack of)
	// guarantee as the comparator kernel, and under the contract above
	// equal-key elements are order-indistinguishable anyway. Key
	// supersedes Prefix.
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
	// comparator only inside equal-prefix runs. An explicit Prefix is
	// never assumed exact. When unset, a natural-order prefix is derived
	// automatically for ordered scalar and string element types
	// (assuming less is the type's ascending natural order; a sampled
	// entry guard drops a derived hook that contradicts less). For the
	// integer types the derived prefix is exact — equal prefixes mean
	// equal bytes — so those runs take the keyed kernels as under Key;
	// floats (±0 share a prefix) and strings (only 8 bytes) take the
	// prefix-cached comparator kernels. A hook whose type does not match
	// the element type is rejected at sort entry. Output is
	// byte-identical to the plain comparator path either way.
	Prefix any
	// NoPrefix disables explicit Prefix hooks and automatic derivation:
	// every local kernel then runs on the comparator only, unless Key is
	// set, which still runs keyed. Output is unchanged either way.
	NoPrefix bool
}

// prefixFor resolves the prefix hook for element type E and whether it
// is exact: the explicit Config.Prefix when set — never assumed exact;
// a hook whose type does not match the element type is a configuration
// error and rejected here, at sort entry, with the same error shape as
// the other Config checks (instead of panicking mid-classify) — else a
// derived natural-order prefix for ordered element types. NoPrefix
// disables both. Config.Key, which supersedes either, is initScratch's.
func prefixFor[E any](cfg Config) (pf func(E) uint64, exact bool) {
	if cfg.Prefix != nil {
		pf, ok := cfg.Prefix.(func(E) uint64)
		if !ok {
			var zero E
			panic(fmt.Sprintf("core: Config.Prefix is %T, want func(%T) uint64", cfg.Prefix, zero))
		}
		if cfg.NoPrefix {
			return nil, false
		}
		return pf, false
	}
	if cfg.NoPrefix {
		return nil, false
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
