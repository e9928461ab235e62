package core

import (
	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/msel"
	"pmsort/internal/obs"
	"pmsort/internal/seq"
)

// RLMSort sorts the distributed data with recurse-last multiway
// mergesort (§5). It must be called collectively by all members of c
// with identical cfg. Every PE first sorts locally; each level then
// splits the p sorted sequences into r parts of exactly equal total size
// by multisequence selection, moves the data, and merges the received
// sorted runs. The output is perfectly balanced: every PE ends up with
// ⌊n/p⌋ or ⌈n/p⌉ elements.
//
// The input slice is consumed: the sorter sorts it in place and
// recycles its backing array as level scratch, so its contents after
// the call are unspecified (callers that need the original must copy).
func RLMSort[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config) ([]E, *Stats) {
	return sortRun(c, data, less, cfg, obs.SpanRLM, func(cfg Config, plan []int, m *Meter, st *localScratch[E]) []E {
		// Initial local sort (the "local sort" phase of Figure 8), through
		// the selected kernel: keyed radix under an exact hook,
		// prefix-cached radix under an inexact one, stable comparator sort
		// otherwise.
		cost := c.Cost()
		t0 := cost.Now()
		ls := m.rec.StartLevel(obs.SpanLocalSort, 0).N(int64(len(data)))
		st.sort(data, less, cost)
		ls.End()
		m.Local(c, 0, PhaseLocalSort, t0, int64(len(data)))
		return rlmLevel(c, data, less, cfg, plan, 0, m, st)
	})
}

func rlmLevel[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config, plan []int, level int, m *Meter, st *localScratch[E]) []E {
	cost := c.Cost()
	if c.Size() == 1 {
		m.Levels = level
		return data
	}
	r := levelR(cfg, plan, level, c.Size())
	seed := cfg.Seed + uint64(level)*0x7f4a7c159e3779b9
	lvl := m.rec.StartLevel(obs.SpanLevel, level).N(int64(len(data)))
	defer lvl.End() // covers the level's recursion subtree in the trace

	// --- Phase: splitter selection (multisequence selection) -----------
	m.Fence(c)
	sel := m.rec.StartLevel(obs.SpanSplitterSel, level).N(int64(len(data)))
	n := coll.Allreduce(c, int64(len(data)), 1, addI64)
	targets := make([]int64, r-1)
	for j := 1; j < r; j++ {
		targets[j-1] = int64(j) * n / int64(r)
	}
	pos := msel.Select(c, data, targets, less, seed)
	m.Lap(c, level, PhaseSplitterSelection, 0)
	sel.End()

	// --- Phase: data delivery ------------------------------------------
	pieces := make([][]E, r)
	prev := 0
	for j := 0; j < r-1; j++ {
		pieces[j] = data[prev:pos[j]]
		prev = pos[j]
	}
	pieces[r-1] = data[prev:]
	dopt := cfg.Delivery
	dopt.Seed = seed ^ 0x2b3c4d5e
	// The received runs are staged in rank order as they arrive
	// (streamRuns); the loser-tree merge below needs all of them, so it
	// starts at the last arrival — the exchange overlap here is the
	// staging, on the TCP backend the decoding of later messages behind
	// earlier ones (DESIGN.md §10), and under an order hook the
	// extraction of each chunk's prefix sidecar.
	exch := m.rec.StartLevel(obs.SpanExchange, level)
	chunks, cpfx := streamRuns(c, pieces, dopt, st)
	var total int
	for _, ch := range chunks {
		total += len(ch)
	}
	m.Lap(c, level, PhaseDataDelivery, int64(total))
	exch.N(int64(total)).End()

	// --- Phase: bucket processing (multiway merging) --------------------
	// The received chunks are sorted runs; merge instead of re-sorting
	// ("we do not want to ignore the information already available", §5).
	// Delivery coalesced contiguous same-sender spans on receive, so the
	// loser-tree k is bounded by the number of senders even on plans
	// that cut a piece into many spans; the output goes into the buffer
	// retired one level up (see localScratch). Any live hook merges on
	// prefixes: under either contract, exact or not, comparing hook
	// values first and less only on ties decides every match exactly
	// like the plain merge (nil sidecars, no hook).
	mg := m.rec.StartLevel(obs.SpanMerge, level).N(int64(total))
	merged := seq.MultiwayPrefixedInto(st.grab(total), chunks, cpfx, less)
	cost.Ops(seq.MultiwayOps(int64(total), len(chunks)))
	// data is dead once the fence of the Lap below has passed: every PE
	// holding chunks into it has merged them out. Retire it for recycling.
	st.retire(data)
	m.Lap(c, level, PhaseBucketProcessing, int64(total))
	mg.End()

	sub, _ := c.SplitEqual(r)
	return rlmLevel(sub, merged, less, cfg, plan, level+1, m, st)
}
