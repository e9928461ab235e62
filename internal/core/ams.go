package core

import (
	"math"
	"slices"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
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
//   - hook is the run's order hook (nil on the plain comparator path);
//     exact runs (equal hook values mean order-equal elements) take the
//     keyed kernels end to end, inexact ones the prefix-cached kernels;
//   - pfx is the prefix sidecar / merge-staging arena of the hook
//     paths; like reuse it is dead between its level's consumers and
//     recycled.
type localScratch[E any] struct {
	hook  func(E) uint64
	exact bool
	ids   []uint16
	reuse []E
	pfx   []uint64
	psc   seq.PrefixScratch[E]
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

// retire records buf for recycling by a later grab, capacity-clamped
// to its length: the consumed-input contract makes buf's *elements*
// fair game, but a caller's slice may have spare capacity backed by
// memory that is still live elsewhere (e.g. all ranks' locals cut from
// one array), and recycling must never write past what was handed in.
func (st *localScratch[E]) retire(buf []E) {
	st.reuse = buf[:len(buf):len(buf)]
}

// sort runs the selected local kernel and charges its modeled cost, so
// the simulated backend's virtual time tracks the kernel that actually
// ran: in-place MSD radix under an exact hook, prefix-cached LSD radix
// under an inexact one, stable comparator sort otherwise. The
// comparator kernels at merge-feeding sites are stable on purpose: with
// a stable baseline, the prefix path's output is byte-identical to the
// plain path's even on elements the comparator cannot tell apart (the
// keyed kernel stays unstable — under an exact hook equal keys are
// order-indistinguishable elements, or equal bytes when derived).
func (st *localScratch[E]) sort(data []E, less func(a, b E) bool, cost comm.Cost) {
	n := int64(len(data))
	switch {
	case st.exact:
		seq.SortKeyedInPlace(data, st.hook)
		cost.Ops(seq.SortKeyedOps(n))
	case st.hook != nil:
		st.pfx = seq.ExtractPrefixes(st.pfx[:0], data, st.hook)
		seq.SortPrefixed(data, st.pfx, less, &st.psc)
		cost.Ops(seq.SortPrefixedOps(n))
	default:
		seq.SortStable(data, less)
		cost.SortOps(n)
	}
}

// initScratch builds the run's scratch arena and resolves its order
// hook: Config.Key (exact) wins, else a prefix hook — explicit or
// derived, exact only for the derived integer cases — that survives the
// sampled entry guard.
func initScratch[E any](data []E, less func(a, b E) bool, cfg Config) *localScratch[E] {
	st := &localScratch[E]{}
	// prefixFor also validates an explicit Config.Prefix hook's type, so
	// call it even on keyed runs (where the key supersedes it).
	pf, exact := prefixFor[E](cfg)
	if key, _ := cfg.Key.(func(E) uint64); key != nil {
		st.hook, st.exact = key, true
	} else if pf != nil && prefixGuard(data, less, pf) {
		st.hook, st.exact = pf, exact
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
	return sortRun(c, data, less, cfg, obs.SpanAMS, func(cfg Config, plan []int, m *Meter, st *localScratch[E]) []E {
		return amsLevel(c, data, less, cfg, plan, 0, m, st)
	})
}

// sortRun is the entry AMSSort and RLMSort share: it validates cfg,
// plans the levels, builds the scratch arena, and runs the sorter's
// body between the start and end fences, inside the root span.
func sortRun[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config, span string, body func(cfg Config, plan []int, m *Meter, st *localScratch[E]) []E) ([]E, *Stats) {
	cfg = validate(cfg)
	registerWire[E](cfg.Encoder)
	plan := cfg.Rs
	if plan == nil {
		plan = PlanLevels(c.Size(), cfg.Levels)
	}
	st := initScratch(data, less, cfg)
	m := NewMeter[E](c)
	root := m.rec.Start(span).N(int64(len(data)))
	out := body(cfg, plan, m, st)
	if len(out) == 0 {
		// Canonical empty: whether an empty result is nil or a zero-length
		// slice depends on the scratch-arena state of whichever kernel path
		// produced it; byte-identity comparisons must not see that.
		out = nil
	}
	root.End()
	m.Fence(c)
	return out, m.Total()
}

func amsLevel[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config, plan []int, level int, m *Meter, st *localScratch[E]) []E {
	cost := c.Cost()
	if c.Size() == 1 {
		// Base case: sort locally (the "local sort" phase).
		t0 := cost.Now()
		sp := m.rec.StartLevel(obs.SpanLocalSort, level).N(int64(len(data)))
		st.sort(data, less, cost)
		sp.End()
		m.Local(c, level, PhaseLocalSort, t0, int64(len(data)))
		m.Levels = level
		return data
	}
	r := levelR(cfg, plan, level, c.Size())
	b := effectiveB(cfg, r)
	if b*r > seq.MaxInPlaceBuckets {
		// effectiveB caps b·r at maxBucketsPerLevel for r ≤ 2¹⁵, so only a
		// level with more groups than the in-place partition can name
		// gets here (p > 65536 on one level).
		panic("core: AMS level with more than 65536 groups; raise Config.Levels")
	}
	seed := cfg.Seed + uint64(level)*0x9e3779b97f4a7c15
	lvl := m.rec.StartLevel(obs.SpanLevel, level).N(int64(len(data)))
	defer lvl.End() // covers the level's recursion subtree in the trace

	// --- Phase: splitter selection -------------------------------------
	m.Fence(c)
	sel := m.rec.StartLevel(obs.SpanSplitterSel, level)
	n := coll.Allreduce(c, int64(len(data)), 1, addI64)
	if n == 0 {
		// Nothing to sort anywhere; recurse trivially to keep the
		// collective call structure aligned.
		sel.End()
		sub, _ := c.SplitEqual(r)
		return amsLevel(sub, data, less, cfg, plan, level+1, m, st)
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
	smp := m.rec.StartLevel(obs.SpanSample, level).N(int64(share))
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
	sps := m.rec.StartLevel(obs.SpanSplitterSort, level)
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
	m.Lap(c, level, PhaseSplitterSelection, int64(share))
	sel.N(int64(share)).End()

	// --- Phase: bucket processing --------------------------------------
	cls := m.rec.StartLevel(obs.SpanClassify, level).N(int64(len(data)))
	sizes, bounds := amsPartition(c, data, splitters, less, st)
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
	if imb > m.MaxImbalance {
		m.MaxImbalance = imb
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
	// want to ignore the information already available", §5). Runs with
	// a hook skip the piece sort: their stable radix over the received
	// concatenation is linear, so pre-sorting pieces would only add
	// work. The prefix path stays byte-identical to the merge shape — a
	// stable sort of runs concatenated in sender-rank order IS the
	// stable merge of those runs stably pre-sorted.
	last := r == c.Size()
	plainLast := last && st.hook == nil
	cls.End()
	if plainLast {
		ts := cost.Now()
		ps := m.rec.StartLevel(obs.SpanPieceSort, level).N(int64(len(data)))
		for _, piece := range pieces {
			seq.SortStable(piece, less)
		}
		cost.SortOps(int64(len(data)))
		ps.End()
		m.Local(c, level, PhaseLocalSort, ts, int64(len(data)))
	}
	m.Lap(c, level, PhaseBucketProcessing, int64(len(data)))

	// --- Phase: data delivery ------------------------------------------
	dopt := cfg.Delivery
	dopt.Seed = seed ^ 0x1f2e3d4c

	if plainLast {
		// The received chunks are sorted runs, staged in rank order as
		// they arrive; merge them into the recycled buffer once the last
		// one is in (a loser tree needs all its runs) — the same
		// exchange-and-merge pair as every RLM level. Delivery coalesced
		// contiguous same-sender spans, so k is bounded by the number of
		// senders.
		exch := m.rec.StartLevel(obs.SpanExchange, level)
		chunks, cpfx := streamRuns(c, pieces, dopt, st)
		var total int
		for _, ch := range chunks {
			total += len(ch)
		}
		tm := cost.Now()
		mg := m.rec.StartLevel(obs.SpanMerge, level).N(int64(total))
		out := seq.MultiwayPrefixedInto(st.grab(total), chunks, cpfx, less)
		cost.Ops(seq.MultiwayOps(int64(total), len(chunks)))
		mg.End()
		m.Local(c, level, PhaseBucketProcessing, tm, int64(total))
		m.Lap(c, level, PhaseDataDelivery, int64(total))
		exch.N(int64(total)).End()
		m.Levels = level + 1
		return out
	}

	// Concatenation shape: the received chunks are copied into the next
	// level's buffer in rank order while the exchange is still running
	// (streamConcat); at the last level under an exact hook the copy
	// loop also accumulates the radix histograms, so the final radix's
	// counting pass overlaps the exchange too, and under an inexact one
	// it extracts the arriving chunks' prefix sidecar the same way.
	// (Under delivery's Options.Batch knob the chunks all arrive after
	// the exchange, in rank order, and the same loop runs then —
	// byte-identical; asserted by the torture harness.)
	exch := m.rec.StartLevel(obs.SpanExchange, level)
	bound := recvBound(c.Size(), c.Rank(), r, globalSizes, starts)
	var hook func(E) uint64
	var hist *seq.KeyedHist
	var pfx []uint64
	if last && st.hook != nil {
		hook = st.hook
		if st.exact {
			hist = &seq.KeyedHist{}
		} else {
			pfx = slices.Grow(st.pfx[:0], bound)
		}
	}
	next, pfx := streamConcat(c, pieces, dopt, st.grab(bound), hook, st.exact, hist, pfx)
	total := len(next)
	// data is dead once the fence of the Lap below has passed: every PE
	// holding chunks into it has copied them out. Retire it for recycling.
	st.retire(data)
	cost.Scan(int64(total))
	m.Lap(c, level, PhaseDataDelivery, int64(total))
	exch.N(int64(total)).End()

	if last {
		// Fast-path last level: a stable radix sort of the concatenation
		// is linear in total — no log k merge term. An exact hook runs
		// the LSD radix with its histograms already accumulated during
		// the exchange and the retired level buffer as the ping-pong
		// scratch (no copy-back: whichever buffer holds the result is
		// returned, the other dies with the run); an inexact one runs the
		// stable prefix radix over the sidecar extracted during the
		// exchange, with the comparator deciding only equal-prefix runs.
		t4 := cost.Now()
		ls := m.rec.StartLevel(obs.SpanLocalSort, level).N(int64(total))
		scratch := st.grab(total)
		var sorted []E
		if st.exact {
			sorted, _ = seq.SortKeyedHist(next, st.hook, scratch[:cap(scratch)], hist)
			cost.Ops(seq.SortKeyedOps(int64(total)))
		} else {
			st.psc.Donate(scratch[:cap(scratch)])
			seq.SortPrefixed(next, pfx, less, &st.psc)
			cost.Ops(seq.SortPrefixedOps(int64(total)))
			sorted = next
		}
		ls.End()
		m.Local(c, level, PhaseLocalSort, t4, int64(total))
		m.Levels = level + 1
		return sorted
	}

	sub, _ := c.SplitEqual(r)
	return amsLevel(sub, next, less, cfg, plan, level+1, m, st)
}

// amsPartition classifies the local data into the b·r buckets under
// the implicit (PE, position) tie-breaking of Appendix D and reorders
// it bucket-contiguously *in place* (the id scratch lives in st and is
// reused across levels). It returns the local bucket sizes and
// boundaries.
func amsPartition[E any](c comm.Communicator, data []E, splitters []tagged[E], less func(a, b E) bool, st *localScratch[E]) ([]int64, []int) {
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
	// tieFix is the Appendix-D fix-up: the element at position i equal
	// to a splitter key goes after the splitters of that key's run
	// whose (PE, position) tags precede its own (me, i). Inside a run
	// the tags are sorted by (pe, idx), and every classification pass
	// visits positions in increasing order, so lower-PE tags are passed
	// at once and own tags one at a time as i grows (DESIGN.md §9). Each
	// run, indexed by its first splitter runLo, keeps its current bucket
	// ans and thr, the last position that leaves the tag at ans unpassed:
	// one compare per element, no comparator call.
	me := int32(c.Rank())
	m := int32(len(keys))
	runLo := make([]int32, m)
	ans := make([]int32, m)
	thr := make([]int32, m)
	// thrOf: −1 for a lower-PE tag, an own tag's idx, MaxInt32 for a
	// higher-PE tag or past the run's end.
	thrOf := func(lo, k int32) int32 {
		switch {
		case k == m || runLo[k] != lo || splitters[k].pe > me:
			return math.MaxInt32
		case splitters[k].pe < me:
			return -1
		}
		return splitters[k].idx
	}
	for j := int32(0); j < m; j++ {
		runLo[j] = j
		if j > 0 && !less(keys[j-1], keys[j]) {
			runLo[j] = runLo[j-1]
		}
		if runLo[j] == j {
			ans[j], thr[j] = j, thrOf(j, j)
		}
	}
	tieFix := func(i int, lo int32) int {
		for int32(i) > thr[lo] {
			ans[lo]++
			thr[lo] = thrOf(lo, ans[lo])
		}
		return int(ans[lo])
	}

	var bounds []int
	var levels int
	if spfx := splitterPrefixes(keys, st.hook); spfx != nil {
		// The branchless uint64 descent over the splitters' prefixes.
		// Only elements whose prefix collides with a splitter's leave it:
		// a coarse prefix binary-searches the run of equal-prefix
		// splitters with the comparator, and an element equal to a
		// splitter key goes to the tie fix-up — for everything else a
		// strict prefix inequality already decides the order.
		pc := seq.NewPrefixClassifier(spfx)
		levels = pc.Levels()
		if len(st.ids) < len(data) {
			st.ids = make([]uint16, len(data))
		}
		seq.ClassifyPrefixed(data, st.hook, pc, st.ids, func(i, lo, hi int) int {
			// Under an exact hook the equal-prefix run is the key's run.
			if !st.exact {
				x := data[i]
				hi = lo + seq.UpperBound(keys[lo:hi], x, less)
				if hi == 0 || less(keys[hi-1], x) {
					return hi
				}
				lo = int(runLo[hi-1])
			}
			return tieFix(i, int32(lo))
		})
		bounds = seq.PartitionInPlaceIDs(data, nb, st.ids[:len(data)])
	} else {
		// The generic comparator tree (NoPrefix, element types without a
		// prefix): x ≥ keys[b-1] by construction, so one more compare
		// tells an element equal to a splitter key, which goes to the
		// tie fix-up.
		cls := seq.NewClassifier(keys, less)
		levels = cls.Levels()
		i := 0
		bounds, st.ids = seq.PartitionInPlace(data, nb, func(x E) int {
			b := cls.Bucket(x)
			if b > 0 && !less(keys[b-1], x) {
				b = tieFix(i, runLo[b-1])
			}
			i++
			return b
		}, st.ids)
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
