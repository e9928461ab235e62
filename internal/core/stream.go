package core

import (
	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/seq"
)

// This file holds the sorters' receive-driven delivery consumers
// (DESIGN.md §10). delivery.DeliverStream hands out each sender's
// chunks as that sender's message arrives; what a level does with them
// depends on its shape:
//
//   - Concatenation levels (every non-last AMS level, and the keyed
//     and prefix-cached last levels feeding the radix kernels) copy
//     chunks into the next level buffer *during* the exchange — in
//     sender-rank order, so the result is byte-identical to the
//     materialize-then-concatenate batch path — and accumulate the
//     radix histograms (keyed) or extract the prefix sidecar
//     (prefix-cached) on the fly, so the first pass of the final radix
//     has already happened when the last byte arrives.
//   - Merge levels (RLM, the plain-comparator last AMS level) only
//     stage the arriving runs: a loser-tree merge needs all its runs,
//     so the merge itself starts at the last arrival — they use
//     delivery.Deliver, which since the streaming rewrite IS the
//     rank-ordered collector over DeliverStream; what overlaps there
//     is the staging and, on the TCP backend, the decode of later
//     messages behind the processing of earlier ones.
//
// The batch-vs-stream decision lives in delivery alone: under its
// Options.Batch knob DeliverStream emits every sender's chunks only
// after the exchange, in rank order, and these same consumers run then —
// the original materialize-then-process path. The torture harness
// randomizes the knob and asserts the two are byte-identical.

// streamConcat delivers pieces and concatenates the received chunks in
// sender-rank order into buf (a zero-length slice with capacity from
// the caller's bound). Chunks are copied as they arrive: the in-order
// prefix eagerly — overlapping the memcpy with the remaining exchange —
// and out-of-order arrivals staged (by reference, no copy) until their
// turn. key, when non-nil, additionally folds every copied chunk into
// h, pre-computing the LSD radix histograms of the concatenation; pf,
// when non-nil, appends every copied chunk's prefixes to pfx — the
// sidecar is built in the same rank order as buf, so the two stay
// aligned — pre-computing the prefix extraction of the concatenation
// the same way. At most one of key/pf is set (they feed the two
// different last-level kernels).
func streamConcat[E any](c comm.Communicator, pieces [][]E, opt delivery.Options, buf []E, key func(E) uint64, h *seq.KeyedHist, pf func(E) uint64, pfx []uint64) ([]E, []uint64) {
	p := c.Size()
	pending := make([][][]E, p)
	arrived := make([]bool, p)
	nextSrc := 0
	add := func(chs [][]E) {
		for _, ch := range chs {
			if key != nil {
				seq.HistKeyed(ch, key, h)
			}
			if pf != nil {
				pfx = seq.ExtractPrefixes(pfx, ch, pf)
			}
			buf = append(buf, ch...)
		}
	}
	delivery.DeliverStream(c, pieces, opt, func(src int, chs [][]E) {
		arrived[src] = true
		pending[src] = chs
		for nextSrc < p && arrived[nextSrc] {
			add(pending[nextSrc])
			pending[nextSrc] = nil
			nextSrc++
		}
	})
	return buf, pfx
}

// streamRuns delivers pieces and stages the received chunks in
// sender-rank order — the exact chunk list delivery.Deliver returns —
// while extracting each chunk's prefix sidecar as it arrives, so the
// tie-aware loser tree starts (at the last arrival) with its prefixes
// already cached: the merge-level sibling of streamConcat's
// histogram-during-exchange overlap. The sidecars are carved from one
// arena (st.pfx, recycled across levels; dead between a level's merge
// and the next level's staging); spans are recorded as offsets and
// sliced only after the stream completes, since the growing arena may
// reallocate under earlier sub-slices.
func streamRuns[E any](c comm.Communicator, pieces [][]E, opt delivery.Options, st *localScratch[E]) (chunks [][]E, pfx [][]uint64) {
	type span struct{ off, n int }
	arena := st.pfx[:0]
	extract := func(chs [][]E) []span {
		ss := make([]span, len(chs))
		for i, ch := range chs {
			off := len(arena)
			arena = seq.ExtractPrefixes(arena, ch, st.prefix)
			ss[i] = span{off, len(ch)}
		}
		return ss
	}
	p := c.Size()
	bySrc := make([][][]E, p)
	spansBySrc := make([][]span, p)
	nchunks := 0
	delivery.DeliverStream(c, pieces, opt, func(src int, chs [][]E) {
		bySrc[src] = chs
		spansBySrc[src] = extract(chs)
		nchunks += len(chs)
	})
	chunks = make([][]E, 0, nchunks)
	spans := make([]span, 0, nchunks)
	for src := 0; src < p; src++ {
		chunks = append(chunks, bySrc[src]...)
		spans = append(spans, spansBySrc[src]...)
	}
	st.pfx = arena
	pfx = make([][]uint64, len(chunks))
	for i, s := range spans {
		pfx[i] = arena[s.off : s.off+s.n]
	}
	return chunks, pfx
}

// recvBound bounds this PE's received element count for a level with r
// groups: its balanced share of its group's bucket load (the Deliver
// balance guarantee: ⌊m/g⌋ or ⌈m/g⌉ of the group's m elements). Used to
// size the next-level buffer before the exchange starts, so the
// streaming concatenation appends without reallocating.
func recvBound(p, rank, r int, globalSizes []int64, starts []int) int {
	pestarts, ok := comm.EqualStarts(p, r)
	if !ok {
		return 0
	}
	g := 0
	for g+1 < len(pestarts) && rank >= pestarts[g+1] {
		g++
	}
	if g+1 >= len(starts) {
		return 1 // trailing group with no buckets
	}
	var load int64
	for b := starts[g]; b < starts[g+1]; b++ {
		load += globalSizes[b]
	}
	gsize := pestarts[g+1] - pestarts[g]
	return int((load+int64(gsize)-1)/int64(gsize)) + 1
}
