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
//   - Concatenation levels (every AMS level) copy chunks into the next
//     level buffer *during* the exchange — in sender-rank order, so the
//     result is byte-identical to the materialize-then-concatenate
//     batch path. At the last level the copy also starts the run's
//     kernel on each sender's chunks: it accumulates the radix
//     histograms (exact hook), extracts the prefix sidecar (inexact
//     hook), or stably sorts the sender's span (no hook), so the first
//     pass of the final sort has already happened when the last byte
//     arrives.
//   - Merge levels (RLM) only stage the arriving runs (streamRuns): a
//     loser-tree merge needs all its runs, so the merge itself starts
//     at the last arrival. Under a hook each arriving run's prefix
//     sidecar is extracted then. What overlaps besides is the staging
//     and, on the TCP backend, the decode of later messages behind the
//     processing of earlier ones.
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
// turn. At the last level each sender's chunks go through
// st.lastFeed instead, which starts the run's one kernel on them
// during the exchange; st.lastFinish completes it.
func streamConcat[E any](c comm.Communicator, pieces [][]E, opt delivery.Options, buf []E, st *localScratch[E], last bool, less func(a, b E) bool) []E {
	p := c.Size()
	pending := make([][][]E, p)
	arrived := make([]bool, p)
	nextSrc := 0
	if last {
		st.lastBegin(cap(buf))
	}
	add := func(chs [][]E) {
		if last {
			buf = st.lastFeed(buf, chs, less)
			return
		}
		for _, ch := range chs {
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
	return buf
}

// streamRuns delivers pieces and stages the received chunks in
// sender-rank order — the exact chunk list delivery.Deliver returns —
// while extracting each chunk's prefix sidecar as it arrives when the
// run has an order hook, so the tie-aware loser tree starts (at the
// last arrival) with its prefixes already cached: the merge-level
// sibling of streamConcat's histogram-during-exchange overlap. Without
// a hook the sidecars are nil, which MultiwayPrefixedInto takes as a
// plain comparator merge. The sidecars are carved from one arena
// (st.pfx, recycled across levels; dead between a level's merge and the
// next level's staging); spans are recorded as offsets and sliced only
// after the stream completes, since the growing arena may reallocate
// under earlier sub-slices.
func streamRuns[E any](c comm.Communicator, pieces [][]E, opt delivery.Options, st *localScratch[E]) (chunks [][]E, pfx [][]uint64) {
	type span struct{ off, n int }
	arena := st.pfx[:0]
	p := c.Size()
	bySrc := make([][][]E, p)
	spansBySrc := make([][]span, p)
	nchunks := 0
	delivery.DeliverStream(c, pieces, opt, func(src int, chs [][]E) {
		bySrc[src] = chs
		nchunks += len(chs)
		if st.hook == nil {
			return
		}
		ss := make([]span, len(chs))
		for i, ch := range chs {
			ss[i] = span{len(arena), len(ch)}
			arena = seq.ExtractPrefixes(arena, ch, st.hook)
		}
		spansBySrc[src] = ss
	})
	chunks = make([][]E, 0, nchunks)
	spans := make([]span, 0, nchunks)
	for src := 0; src < p; src++ {
		chunks = append(chunks, bySrc[src]...)
		spans = append(spans, spansBySrc[src]...)
	}
	if st.hook == nil {
		return chunks, nil
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
