package baseline

import (
	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/prng"
	"pmsort/internal/seq"
)

// HistogramSort implements the single-level histogram-based sorter in
// the style of Solomonik and Kale [34] (the paper's §3 "state of the art
// practical parallel sorting algorithm"): a hybrid between multiway
// mergesort and deterministic sample sort. Every PE sorts locally; then
// splitter candidates are refined through global histogram rounds until
// every splitter's global rank is within tol·n/p of its target; the data
// is exchanged directly and the received sorted runs are merged.
//
// tol is the rank tolerance as a fraction of n/p (their evaluation uses
// a few percent); tol ≤ 0 defaults to 0.05.
func HistogramSort[E any](c comm.Communicator, data []E, less func(a, b E) bool, tol float64, seed uint64) ([]E, *core.Stats) {
	registerWire[E]()
	cost := c.Cost()
	p := c.Size()
	m := core.NewMeter[E](c)
	if tol <= 0 {
		tol = 0.05
	}

	// Local sort (their algorithm works on sorted local arrays so that
	// histograms are binary searches).
	seq.Sort(data, less)
	cost.SortOps(int64(len(data)))
	m.Lap(c, 0, core.PhaseLocalSort, int64(len(data)))
	if p == 1 {
		return data, m.Total()
	}

	n := coll.Allreduce(c, int64(len(data)), 1, addI64)
	if n == 0 {
		m.Fence(c)
		return data, m.Total()
	}
	slack := int64(tol * float64(n) / float64(p))
	if slack < 1 {
		slack = 1
	}

	// Iterative histogramming: maintain per-splitter candidate sets; a
	// histogram round ranks all pending candidates at once (one
	// vector-valued all-reduce), then keeps refining between the tightest
	// known bounds by probing local elements between them.
	type bound struct {
		pos  int   // local index bound
		rank int64 // its global rank
	}
	lo := make([]bound, p-1) // rank(lo) <= target
	hi := make([]bound, p-1) // rank(hi) >= target: local split in (lo.pos, hi.pos]
	targets := make([]int64, p-1)
	for j := range targets {
		targets[j] = int64(j+1) * n / int64(p)
		lo[j] = bound{pos: 0, rank: 0}
		hi[j] = bound{pos: len(data), rank: n}
	}
	splits := make([]int, p-1)
	resolved := make([]bool, p-1)
	rng := prng.New(seed).Fork(uint64(c.Rank()) * 31)

	addVec := func(a, b []int64) []int64 {
		out := make([]int64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	// pick proposes a probe: a pseudorandom local element between the
	// current bounds; -1 when this PE has nothing to offer.
	pick := func(j int) int {
		span := hi[j].pos - lo[j].pos
		if span <= 0 {
			return -1
		}
		return lo[j].pos + rng.Intn(span)
	}
	pickVec := func(a, b []probeSlot[E]) []probeSlot[E] {
		out := make([]probeSlot[E], len(a))
		for i := range a {
			if a[i].ok {
				out[i] = a[i]
			} else {
				out[i] = b[i]
			}
		}
		return out
	}

	remaining := p - 1
	for round := 0; remaining > 0 && round < 64; round++ {
		// Propose one candidate per unresolved splitter: a PE volunteers
		// its probe; the all-reduce picks one (ties by reduce order).
		cands := make([]probeSlot[E], p-1)
		for j := range cands {
			if resolved[j] {
				continue
			}
			if q := pick(j); q >= 0 {
				cands[j] = probeSlot[E]{val: data[q], ok: true}
			}
		}
		cands = coll.Allreduce(c, cands, int64(p-1), pickVec)

		// Histogram: global ranks of all candidates in one shot.
		counts := make([]int64, p-1)
		localPos := make([]int, p-1)
		for j := range counts {
			if resolved[j] || !cands[j].ok {
				continue
			}
			localPos[j] = seq.LowerBound(data, cands[j].val, less)
			counts[j] = int64(localPos[j])
			cost.Ops(int64(16))
		}
		ranks := coll.Allreduce(c, counts, int64(p-1), addVec)

		for j := range ranks {
			if resolved[j] {
				continue
			}
			if !cands[j].ok {
				// No candidates anywhere between the bounds: the range
				// of possible split points is empty of probes; settle on
				// the hi bound.
				splits[j] = hi[j].pos
				resolved[j] = true
				remaining--
				continue
			}
			d := ranks[j] - targets[j]
			switch {
			case d >= -slack && d <= slack:
				splits[j] = localPos[j]
				resolved[j] = true
				remaining--
			case ranks[j] < targets[j]:
				// Update criteria use only global ranks so every PE
				// tightens to the same candidate — the stored pos then
				// always belongs to one consistent splitter value.
				if ranks[j] > lo[j].rank {
					lo[j] = bound{pos: localPos[j], rank: ranks[j]}
				}
			default:
				if ranks[j] < hi[j].rank {
					hi[j] = bound{pos: localPos[j], rank: ranks[j]}
				}
			}
		}
	}
	// Any splitter still unresolved after the round cap falls back to its
	// tightest bound (keeps correctness; only balance degrades).
	for j := range resolved {
		if !resolved[j] {
			splits[j] = hi[j].pos
		}
	}
	// Splits must be monotone for slicing.
	for j := 1; j < len(splits); j++ {
		if splits[j] < splits[j-1] {
			splits[j] = splits[j-1]
		}
	}
	m.Lap(c, 0, core.PhaseSplitterSelection, 0)

	// Direct exchange of the p pieces.
	out := make([][]E, p)
	prev := 0
	for j := 0; j < p-1; j++ {
		out[j] = data[prev:splits[j]]
		prev = splits[j]
	}
	out[p-1] = data[prev:]
	in := coll.AlltoallvDirect(c, out)
	var total int
	for _, chunk := range in {
		total += len(chunk)
	}
	m.Lap(c, 0, core.PhaseDataDelivery, int64(total))

	// Merge the received sorted runs (the mergesort half of the hybrid).
	merged := seq.Multiway(in, less)
	cost.Ops(seq.MultiwayOps(int64(len(merged)), len(in)))
	m.Lap(c, 0, core.PhaseBucketProcessing, int64(len(merged)))
	return merged, m.Total()
}

// probeSlot carries a histogram candidate through the pick-one reduce.
type probeSlot[E any] struct {
	val E
	ok  bool
}
