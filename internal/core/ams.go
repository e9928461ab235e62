package core

import (
	"math"
	"unsafe"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/fwis"
	"pmsort/internal/grouping"
	"pmsort/internal/obs"
	"pmsort/internal/prng"
	"pmsort/internal/seq"
)

// tagged is a sample or splitter key with its origin stamp, giving the
// strict total order of §2 ((key, PE, position) lexicographically).
type tagged[E any] struct {
	key E
	pe  int32
	idx int32
}

func taggedLess[E any](less func(a, b E) bool) func(a, b tagged[E]) bool {
	return func(a, b tagged[E]) bool {
		if less(a.key, b.key) {
			return true
		}
		if less(b.key, a.key) {
			return false
		}
		if a.pe != b.pe {
			return a.pe < b.pe
		}
		return a.idx < b.idx
	}
}

// localScratch is the per-PE scratch arena one sorting run threads
// through its recursion levels, so the hot path stops re-allocating
// per level (DESIGN.md §9):
//
//   - ids is the partition id scratch of PartitionInPlace;
//   - reuse holds the element buffer that carried this PE's data one
//     level up. Received chunks alias the *current* buffers of their
//     senders, and every PE has copied its received data out of them
//     before the data-delivery barrier — so once that barrier has
//     passed, the previous level's buffer is referenced by no one and
//     the next level may recycle it. Levels therefore ping-pong
//     between two buffers per PE instead of allocating one per level.
//   - pfx is the prefix sidecar / merge-staging arena of the prefix-
//     cached comparator path (nil-prefix runs never touch it); like
//     reuse it is dead between its level's consumers and recycled.
type localScratch[E any] struct {
	key    func(E) uint64
	prefix func(E) uint64
	ids    []uint16
	reuse  []E
	pfx    []uint64
	psc    seq.PrefixScratch[E]

	// rec is the run's obs recorder (nil when tracing is off — every
	// span call no-ops); eb is the element size for the PhaseBytes
	// accounting.
	rec *obs.Recorder
	eb  int64
}

// grab returns a zero-length buffer with capacity ≥ n, recycling the
// retired level buffer when it is big enough.
func (st *localScratch[E]) grab(n int) []E {
	buf := st.reuse
	st.reuse = nil
	if cap(buf) >= n {
		return buf[:0]
	}
	return make([]E, 0, n)
}

// pfxGrab returns the recycled prefix sidecar as a zero-length slice
// with capacity for n prefixes, so the per-chunk extraction appends
// without a realloc chain (the sidecar sibling of grab+recvBound).
func (st *localScratch[E]) pfxGrab(n int) []uint64 {
	if cap(st.pfx) < n {
		st.pfx = make([]uint64, 0, n)
	}
	return st.pfx[:0]
}

// retire records buf for recycling by a later grab, capacity-clamped
// to its length: the consumed-input contract makes buf's *elements*
// fair game, but a caller's slice may have spare capacity backed by
// memory that is still live elsewhere (e.g. all ranks' locals cut from
// one array), and recycling must never write past what was handed in.
func (st *localScratch[E]) retire(buf []E) {
	st.reuse = buf[:len(buf):len(buf)]
}

// sort runs the selected local kernel: in-place MSD radix when the run
// is keyed (Config.Key), prefix-cached LSD radix when a prefix hook is
// live, stable comparator sort otherwise. The comparator kernels at
// merge-feeding sites are stable on purpose: with a stable baseline,
// the prefix path's output is byte-identical to the plain path's even
// on elements the comparator cannot tell apart (the keyed kernel stays
// unstable — under the Key contract equal-key elements are
// order-indistinguishable anyway).
func (st *localScratch[E]) sort(data []E, less func(a, b E) bool) {
	if st.key != nil {
		seq.SortKeyedInPlace(data, st.key)
		return
	}
	if st.prefix != nil {
		st.pfx = seq.ExtractPrefixes(st.pfx[:0], data, st.prefix)
		seq.SortPrefixed(data, st.pfx, less, &st.psc)
		return
	}
	seq.SortStable(data, less)
}

// sortCost charges the selected kernel's modeled cost for n elements:
// the linear radix models when keyed or prefixed, the n·log n
// comparison-sort model otherwise — so the simulated backend's virtual
// time tracks the kernel that actually ran.
func (st *localScratch[E]) sortCost(cost comm.Cost, n int64) {
	if st.key != nil {
		cost.Ops(seq.SortKeyedOps(n))
		return
	}
	if st.prefix != nil {
		cost.Ops(seq.SortPrefixedOps(n))
		return
	}
	cost.SortOps(n)
}

// initScratch builds the run's scratch arena and resolves its kernel:
// Config.Key wins, else a validated prefix hook that survives the
// sampled entry guard arms the prefix-cached comparator kernels.
func initScratch[E any](data []E, less func(a, b E) bool, cfg Config) *localScratch[E] {
	st := &localScratch[E]{key: keyFor[E](cfg), eb: int64(unsafe.Sizeof(*new(E)))}
	// prefixFor also validates an explicit Config.Prefix hook's type, so
	// call it even on keyed runs (where the key kernel supersedes it).
	if pf := prefixFor[E](cfg); st.key == nil && pf != nil && prefixGuard(data, less, pf) {
		st.prefix = pf
	}
	return st
}

// AMSSort sorts the distributed data with adaptive multi-level sample
// sort (§6). It must be called collectively by all members of c with
// identical cfg. It returns this PE's slice of the globally sorted
// permutation — locally sorted, with no element on PE i larger than any
// element on PE i+1 — together with phase statistics. The output may be
// imbalanced by the overpartitioning tolerance (Lemma 2).
//
// The input slice is consumed: the sorter partitions it in place and
// recycles its backing array as level scratch, so its contents after
// the call are unspecified (callers that need the original must copy).
func AMSSort[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config) ([]E, *Stats) {
	cfg = validate(cfg)
	registerWire[E](cfg.Encoder)
	plan := cfg.Rs
	if plan == nil {
		plan = PlanLevels(c.Size(), cfg.Levels)
	}
	stats := &Stats{MaxImbalance: 1}
	st := initScratch(data, less, cfg)
	st.rec = obs.From(c)
	start := coll.TimedBarrier(c)
	root := st.rec.Start(obs.SpanAMS).N(int64(len(data)))
	out := amsLevel(c, data, less, cfg, plan, 0, stats, st)
	if len(out) == 0 {
		// Canonical empty: whether an empty result is nil or a zero-length
		// slice depends on the scratch-arena state of whichever kernel path
		// produced it; byte-identity comparisons must not see that.
		out = nil
	}
	root.End()
	stats.TotalNS = coll.TimedBarrier(c) - start
	return out, stats
}

func amsLevel[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config, plan []int, level int, stats *Stats, st *localScratch[E]) []E {
	cost := c.Cost()
	if c.Size() == 1 {
		// Base case: sort locally (the "local sort" phase).
		t0 := cost.Now()
		sp := st.rec.StartLevel(obs.SpanLocalSort, level).N(int64(len(data)))
		st.sort(data, less)
		st.sortCost(cost, int64(len(data)))
		sp.End()
		stats.addLevel(level, PhaseLocalSort, cost.Now()-t0)
		stats.PhaseBytes[PhaseLocalSort] += int64(len(data)) * st.eb
		stats.Levels = level
		return data
	}
	r := levelR(cfg, plan, level, c.Size())
	b := effectiveB(cfg, r)
	seed := cfg.Seed + uint64(level)*0x9e3779b97f4a7c15
	lvl := st.rec.StartLevel(obs.SpanLevel, level).N(int64(len(data)))
	defer lvl.End() // covers the level's recursion subtree in the trace

	// --- Phase: splitter selection -------------------------------------
	t0 := coll.TimedBarrier(c)
	sel := st.rec.StartLevel(obs.SpanSplitterSel, level)
	n := coll.Allreduce(c, int64(len(data)), 1, addI64)
	if n == 0 {
		// Nothing to sort anywhere; recurse trivially to keep the
		// collective call structure aligned.
		sel.End()
		sub, _ := c.SplitEqual(r)
		return amsLevel(sub, data, less, cfg, plan, level+1, stats, st)
	}
	a := cfg.Oversampling
	if a <= 0 {
		a = 1.6 * math.Log10(float64(n)) // the paper's a = 1.6·log₁₀ n (§7.2)
		if a < 1 {
			a = 1
		}
	}
	sampleTotal := int64(a * float64(b) * float64(r))
	if sampleTotal < int64(r) {
		sampleTotal = int64(r)
	}
	// Per-PE share proportional to this PE's share of the data, so the
	// union approximates a uniform global sample even when the input is
	// unbalanced (all elements on one PE, say): a flat per-PE share
	// under-samples loaded PEs by up to a factor of p, and the splitter
	// variance blows up with it — the torture harness catches this as an
	// output-imbalance violation on the one-pe workload.
	share := int((sampleTotal*int64(len(data)) + n - 1) / n)
	if share > len(data) {
		share = len(data)
	}
	// Sample `share` distinct positions (Floyd's algorithm) and tag each
	// sample with its (PE, data position): distinct positions keep the
	// tagged order strict for fwis, and position tags make the implicit
	// tie-breaking splits uniform over each PE's data.
	rng := prng.New(seed).Fork(uint64(c.Rank()) + 0xabcd)
	smp := st.rec.StartLevel(obs.SpanSample, level).N(int64(share))
	sample := make([]tagged[E], 0, share)
	taken := make(map[int]bool, share)
	for i := len(data) - share; i < len(data); i++ {
		j := rng.Intn(i + 1)
		if taken[j] {
			j = i
		}
		taken[j] = true
		sample = append(sample, tagged[E]{key: data[j], pe: int32(c.Rank()), idx: int32(j)})
	}
	cost.Scan(int64(share))
	smp.End()

	tLess := taggedLess(less)
	sps := st.rec.StartLevel(obs.SpanSplitterSort, level)
	sorter := fwis.New(c, sample, tLess)
	numSplitters := b*r - 1
	if s := sorter.Total(); int64(numSplitters) > s {
		numSplitters = int(s)
	}
	targets := make([]int64, numSplitters)
	for i := range targets {
		targets[i] = (int64(i) + 1) * sorter.Total() / int64(b*r)
	}
	splitters := sorter.SelectRanks(targets)
	sps.N(int64(numSplitters)).End()
	t1 := coll.TimedBarrier(c)
	sel.N(int64(share)).End()
	stats.addLevel(level, PhaseSplitterSelection, t1-t0)
	stats.PhaseBytes[PhaseSplitterSelection] += int64(share) * st.eb

	// --- Phase: bucket processing --------------------------------------
	cls := st.rec.StartLevel(obs.SpanClassify, level).N(int64(len(data)))
	sizes, bounds := amsPartition(c, data, splitters, less, cfg, st)
	// The b·r-long bucket-size vectors are the one long reduction in
	// AMS-sort; use the full-bandwidth algorithm where it applies.
	globalSizes := coll.AllreduceSumI64(c, sizes)
	var starts []int
	var maxLoad int64
	if cfg.ParallelGrouping {
		maxLoad, starts = grouping.OptimalLParallel(c, globalSizes, r)
	} else {
		maxLoad, starts = grouping.OptimalL(globalSizes, r)
		cost.Scan(int64(len(globalSizes)) * 8) // ≈ log(br) scans
	}
	imb := float64(maxLoad) * float64(r) / float64(n)
	if imb > stats.MaxImbalance {
		stats.MaxImbalance = imb
	}
	cls.Imb(imb)
	// Bucket ranges -> r pieces (trailing groups may be empty). The
	// pieces are bucket-contiguous sub-slices of data itself
	// (PartitionInPlace), so delivery stays zero-copy on the in-process
	// backends.
	pieces := make([][]E, r)
	for g := 0; g+1 < len(starts); g++ {
		pieces[g] = data[bounds[starts[g]]:bounds[starts[g+1]]]
	}

	// After this delivery every group is a single PE: finish inline
	// instead of recursing, choosing the cheaper last-level shape per
	// kernel (DESIGN.md §9). On the plain comparator path each outgoing
	// piece is sorted now, so receivers multiway-merge sorted runs
	// instead of re-sorting a concatenation from scratch ("we do not
	// want to ignore the information already available", §5). The keyed
	// and prefix-cached paths skip the piece sort: their stable radix
	// over the received concatenation is linear, so pre-sorting pieces
	// would only add work. The prefix path stays byte-identical to the
	// merge shape — a stable sort of runs concatenated in sender-rank
	// order IS the stable merge of those runs stably pre-sorted.
	last := r == c.Size()
	plainLast := last && st.key == nil && st.prefix == nil
	cls.End()
	var pieceSortNS int64
	if plainLast {
		ts := cost.Now()
		ps := st.rec.StartLevel(obs.SpanPieceSort, level).N(int64(len(data)))
		for _, piece := range pieces {
			seq.SortStable(piece, less)
		}
		cost.SortOps(int64(len(data)))
		ps.End()
		pieceSortNS = cost.Now() - ts
	}
	t2 := coll.TimedBarrier(c)
	stats.addLevel(level, PhaseBucketProcessing, t2-t1-pieceSortNS)
	stats.addLevel(level, PhaseLocalSort, pieceSortNS)
	stats.PhaseBytes[PhaseBucketProcessing] += int64(len(data)) * st.eb
	if plainLast {
		stats.PhaseBytes[PhaseLocalSort] += int64(len(data)) * st.eb
	}

	// --- Phase: data delivery ------------------------------------------
	dopt := cfg.Delivery
	dopt.Seed = seed ^ 0x1f2e3d4c

	if plainLast {
		// The received chunks are sorted runs, staged in rank order as
		// they arrive; merge them into the recycled buffer once the last
		// one is in (a loser tree needs all its runs). Delivery coalesced
		// contiguous same-sender spans, so k is bounded by the number of
		// senders.
		exch := st.rec.StartLevel(obs.SpanExchange, level)
		chunks := delivery.Deliver(c, pieces, dopt)
		var total int
		for _, ch := range chunks {
			total += len(ch)
		}
		tm := cost.Now()
		mg := st.rec.StartLevel(obs.SpanMerge, level).N(int64(total))
		out := seq.MultiwayInto(st.grab(total), chunks, less)
		cost.Ops(seq.MultiwayOps(int64(total), len(chunks)))
		mg.End()
		mergeNS := cost.Now() - tm
		t3 := coll.TimedBarrier(c)
		exch.N(int64(total)).End()
		stats.addLevel(level, PhaseDataDelivery, t3-t2-mergeNS)
		stats.addLevel(level, PhaseBucketProcessing, mergeNS)
		stats.PhaseBytes[PhaseDataDelivery] += int64(total) * st.eb
		stats.PhaseBytes[PhaseBucketProcessing] += int64(total) * st.eb
		stats.Levels = level + 1
		return out
	}

	// Concatenation shape: the received chunks are copied into the next
	// level's buffer in rank order while the exchange is still running
	// (streamConcat); at the keyed last level the copy loop also
	// accumulates the radix histograms, so the final radix's counting
	// pass overlaps the exchange too, and at the prefix-cached last
	// level it extracts the arriving chunks' prefix sidecar the same
	// way. (Under delivery's Options.Batch knob the chunks all arrive
	// after the exchange, in rank order, and the same loop runs then —
	// byte-identical; asserted by the torture harness.)
	var hkey, pf func(E) uint64
	var hist *seq.KeyedHist
	if last {
		hkey = st.key
		if hkey != nil {
			hist = &seq.KeyedHist{}
		} else {
			pf = st.prefix
		}
	}
	exch := st.rec.StartLevel(obs.SpanExchange, level)
	bound := recvBound(c.Size(), c.Rank(), r, globalSizes, starts)
	var pfx []uint64
	if pf != nil {
		pfx = st.pfxGrab(bound)
	}
	next, pfx := streamConcat(c, pieces, dopt, st.grab(bound), hkey, hist, pf, pfx)
	if pf != nil {
		st.pfx = pfx
	}
	total := len(next)
	// data is dead once the barrier below has passed: every PE holding
	// chunks into it has copied them out. Retire it for recycling.
	st.retire(data)
	cost.Scan(int64(total))
	t3 := coll.TimedBarrier(c)
	exch.N(int64(total)).End()
	stats.addLevel(level, PhaseDataDelivery, t3-t2)
	stats.PhaseBytes[PhaseDataDelivery] += int64(total) * st.eb

	if last {
		// Fast-path last level: a stable radix sort of the concatenation
		// is linear in total — no log k merge term. Keyed runs the LSD
		// radix with its histograms already accumulated during the
		// exchange and the retired level buffer as the ping-pong scratch
		// (no copy-back: whichever buffer holds the result is returned,
		// the other dies with the run); the prefix path runs the stable
		// prefix radix over the sidecar extracted during the exchange,
		// with the comparator deciding only equal-prefix runs.
		t4 := cost.Now()
		ls := st.rec.StartLevel(obs.SpanLocalSort, level).N(int64(total))
		var sorted []E
		if st.key != nil {
			scratch := st.grab(total)
			sorted, _ = seq.SortKeyedHist(next, st.key, scratch[:cap(scratch)], hist)
			cost.Ops(seq.SortKeyedOps(int64(total)))
		} else {
			scratch := st.grab(total)
			st.psc.Donate(scratch[:cap(scratch)])
			seq.SortPrefixed(next, st.pfx, less, &st.psc)
			cost.Ops(seq.SortPrefixedOps(int64(total)))
			sorted = next
		}
		ls.End()
		stats.addLevel(level, PhaseLocalSort, cost.Now()-t4)
		stats.PhaseBytes[PhaseLocalSort] += int64(total) * st.eb
		stats.Levels = level + 1
		return sorted
	}

	sub, _ := c.SplitEqual(r)
	return amsLevel(sub, next, less, cfg, plan, level+1, stats, st)
}

// amsPartition classifies the local data into the b·r buckets (or the
// 2(br-1)+1 buckets with equality buckets under Appendix D tie-breaking,
// folded back to br-1 boundaries by (PE, position) comparison against the
// splitter's tag) and reorders it bucket-contiguously *in place*
// (seq.PartitionInPlace — the id scratch lives in st and is reused
// across levels). It returns the local bucket sizes and boundaries.
func amsPartition[E any](c comm.Communicator, data []E, splitters []tagged[E], less func(a, b E) bool, cfg Config, st *localScratch[E]) ([]int64, []int) {
	cost := c.Cost()
	nb := len(splitters) + 1
	if len(splitters) == 0 {
		// Degenerate: a single bucket.
		return []int64{int64(len(data))}, []int{0, len(data)}
	}
	keys := make([]E, len(splitters))
	for i, s := range splitters {
		keys[i] = s.key
	}
	// tieFix resolves an equality-bucket hit under Appendix-D
	// tie-breaking: a binary search of the element's (PE, position) tag
	// over the run of splitters sharing its key, which spreads duplicate
	// keys across all their buckets. Only elements equal to a splitter
	// pay it; the branchless descent handles everything else.
	me := int32(c.Rank())
	tLess := taggedLess(less)
	tieFix := func(i int, x E, eq int) int {
		k := keys[(eq-1)/2]
		lo := seq.LowerBound(keys, k, less)
		hi := seq.UpperBound(keys, k, less)
		mine := tagged[E]{key: x, pe: me, idx: int32(i)}
		return lo + seq.LowerBound(splitters[lo:hi], mine, tLess)
	}

	var bounds []int
	var levels int
	if st.key != nil && nb <= seq.MaxInPlaceBuckets {
		// Keyed fast path: the descent runs on raw uint64 compares
		// (seq.KeyedClassifier) with the classification loop inlined
		// over the id scratch — the generic path's per-level closure
		// calls are the single hottest cost of keyed AMS-sort. The
		// classifications agree exactly with the generic classifier
		// under the Config.Key contract.
		skeys := make([]uint64, len(keys))
		for i, k := range keys {
			skeys[i] = st.key(k)
		}
		kc := seq.NewKeyedClassifier(skeys)
		levels = kc.Levels()
		if len(st.ids) < len(data) {
			st.ids = make([]uint16, len(data))
		}
		if cfg.TieBreak {
			seq.ClassifyKeyedEq(data, st.key, kc, st.ids, tieFix)
		} else {
			seq.ClassifyKeyed(data, st.key, kc, st.ids)
		}
		bounds = seq.PartitionInPlaceIDs(data, nb, st.ids[:len(data)])
	} else if spfx := splitterPrefixes(keys, st); spfx != nil && nb <= seq.MaxInPlaceBuckets {
		// Prefix fast path: the same branchless uint64 descent as the
		// keyed classifier, over the splitters' prefixes. Only elements
		// whose prefix collides with a splitter's ever touch the
		// comparator: the fallback binary-searches the run of
		// equal-prefix splitters (plus Appendix-D tie-breaking when
		// enabled), reproducing the generic classifier's bucket exactly —
		// for everything else a strict prefix inequality already decides
		// the order under the Config.Prefix contract.
		pc := seq.NewPrefixClassifier(spfx)
		levels = pc.Levels()
		if len(st.ids) < len(data) {
			st.ids = make([]uint16, len(data))
		}
		fallback := func(i, lo, hi int) int {
			x := data[i]
			b := lo + seq.UpperBound(keys[lo:hi], x, less)
			if cfg.TieBreak && b > 0 && !less(keys[b-1], x) {
				return tieFix(i, x, 2*(b-1)+1)
			}
			return b
		}
		seq.ClassifyPrefixed(data, st.prefix, pc, st.ids, fallback)
		bounds = seq.PartitionInPlaceIDs(data, nb, st.ids[:len(data)])
	} else {
		cls := seq.NewClassifier(keys, less)
		levels = cls.Levels()
		var bucketOf func(i int, x E) int
		if cfg.TieBreak {
			bucketOf = func(i int, x E) int {
				eq := cls.BucketEq(x)
				if eq%2 == 0 {
					return eq / 2
				}
				return tieFix(i, x, eq)
			}
		} else {
			bucketOf = func(_ int, x E) int { return cls.Bucket(x) }
		}
		idx := 0
		classify := func(x E) int {
			bkt := bucketOf(idx, x)
			idx++
			return bkt
		}
		if nb <= seq.MaxInPlaceBuckets {
			bounds, st.ids = seq.PartitionInPlace(data, nb, classify, st.ids)
		} else {
			// More buckets than the uint16 id scratch can name (giant-p
			// single-level sims): fall back to the out-of-place partition
			// and copy back, keeping the in-place contract for callers.
			parted, pbounds := seq.Partition(data, nb, classify)
			copy(data, parted)
			bounds = pbounds
		}
	}
	cost.PartitionOps(seq.ClassifyOps(int64(len(data)), levels))
	cost.Scan(2 * int64(len(data)))
	sizes := make([]int64, nb)
	for bkt := 0; bkt < nb; bkt++ {
		sizes[bkt] = int64(bounds[bkt+1] - bounds[bkt])
	}
	return sizes, bounds
}

func addI64(a, b int64) int64 { return a + b }
