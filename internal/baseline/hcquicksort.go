package baseline

import (
	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/prng"
	"pmsort/internal/seq"
)

const tagHCQ = 0x6e0002

// med is a (median, weight) gossip pair of HCQuicksort's pivot
// selection; ok=false means the PE abstained (empty local data).
type med[E any] struct {
	val E
	ok  bool
}

// HCQuicksort is hypercube parallel quicksort [19, 21] — the classic
// O(log² p)-startup algorithm that §6 positions AMS-sort as a
// generalization of (AMS with r=O(1) per level behaves like it, but with
// guaranteed balance). Every round, the PEs of the current subcube agree
// on a pivot (median of per-PE medians), split their local data, and
// exchange halves along one hypercube dimension; after log p rounds each
// PE sorts what it holds. The data is moved log p times and the output
// balance depends on pivot quality — both weaknesses the paper's
// algorithms remove. p must be a power of two.
func HCQuicksort[E any](c comm.Communicator, data []E, less func(a, b E) bool, seed uint64) ([]E, *core.Stats) {
	cost := c.Cost()
	p := c.Size()
	if p&(p-1) != 0 {
		panic("baseline: HCQuicksort requires a power-of-two number of PEs")
	}
	registerWire[E]()
	m := core.NewMeter[E](c)

	// Local sort once up front so medians and splits are O(log) each.
	seq.Sort(data, less)
	cost.SortOps(int64(len(data)))
	m.Lap(c, 0, core.PhaseLocalSort, int64(len(data)))

	cur := data
	sub := c
	rng := prng.New(seed)
	// Each round is a level, booked on this PE's own clock.
	for m.Levels = 0; sub.Size() > 1; m.Levels++ {
		q := sub.Size()
		tSel0 := cost.Now()

		// Pivot: median of the members' local medians, via gossip of
		// (median, weight) pairs — cheap and classic. Empty PEs abstain.
		my := med[E]{}
		if len(cur) > 0 {
			my = med[E]{val: cur[len(cur)/2], ok: true}
		}
		meds := coll.Allgatherv(sub, []med[E]{my})
		var cands []E
		for _, m := range meds {
			if len(m) == 1 && m[0].ok {
				cands = append(cands, m[0].val)
			}
		}
		var pivot E
		havePivot := len(cands) > 0
		if havePivot {
			seq.Sort(cands, less)
			cost.SortOps(int64(len(cands)))
			pivot = cands[len(cands)/2]
		}
		_ = rng.Next() // keep the stream aligned across rounds
		m.Local(c, m.Levels, core.PhaseSplitterSelection, tSel0, 0)

		// Split at the pivot and swap halves along the top dimension:
		// lower subcube keeps < pivot, upper keeps ≥ pivot.
		tEx0 := cost.Now()
		cut := 0
		if havePivot {
			cut = seq.LowerBound(cur, pivot, less)
			cost.Ops(16)
		}
		half := q / 2
		low := sub.Rank() < half
		partner := sub.Rank() + half
		if !low {
			partner = sub.Rank() - half
		}
		var keep, give []E
		if low {
			keep, give = cur[:cut], cur[cut:]
		} else {
			keep, give = cur[cut:], cur[:cut]
		}
		sub.Send(partner, tagHCQ, give, int64(len(give)))
		pl, _ := sub.Recv(partner, tagHCQ)
		got := pl.([]E)
		merged := seq.Merge2(keep, got, less)
		cost.Ops(int64(len(merged)))
		cur = merged
		m.Local(c, m.Levels, core.PhaseDataDelivery, tEx0, int64(len(got)))

		if low {
			sub = sub.Subset(0, half)
		} else {
			sub = sub.Subset(half, q)
		}
	}
	m.Fence(c)
	stats := m.Total()
	n := coll.Allreduce(c, int64(len(cur)), 1, addI64)
	if n > 0 {
		stats.MaxImbalance = float64(len(cur)) * float64(p) / float64(n)
	}
	return cur, stats
}
