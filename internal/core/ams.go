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
//   - reuse is the PE's one spare element buffer: the buffer that
//     carried this PE's data one level up. Received chunks alias the
//     *current* buffers of their senders, and every PE has copied its
//     received data out of them before the data-delivery barrier — so
//     once that barrier has passed, the previous level's buffer is
//     referenced by no one and the next level may recycle it. Levels
//     therefore ping-pong between two buffers per PE instead of
//     allocating one per level. A kernel that needs element-sized
//     scratch borrows the spare instead of keeping its own: the prefix
//     radix takes it as its payload gather buffer and gives it back
//     (sortPrefixed), so after RLM's initial sort that buffer —
//     allocated there when no spare exists yet — becomes the level-0
//     merge output instead of dead weight beside it;
//   - hook is the run's order hook (nil on the plain comparator path);
//     exact runs (equal hook values mean order-equal elements) take the
//     keyed kernels end to end, inexact ones the prefix-cached kernels;
//   - pfx is the prefix sidecar / merge-staging arena of the hook
//     paths; like reuse it is dead between its level's consumers and
//     recycled;
//   - hist and runs carry the last AMS level's kernel state from the
//     exchange to the finish (lastFeed, lastFinish): the radix
//     histograms under an exact hook, the end of each sender's sorted
//     run without a hook.
type localScratch[E any] struct {
	hook  func(E) uint64
	exact bool
	ids   []uint16
	reuse []E
	pfx   []uint64
	psc   seq.PrefixScratch[E]
	hist  *seq.KeyedHist
	runs  []int
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
		st.sortPrefixed(data, less, cost)
	default:
		seq.SortStable(data, less)
		cost.SortOps(n)
	}
}

// sortPrefixed is the inexact-hook kernel: the prefix radix over data
// and its sidecar st.pfx, with the spare buffer lent as its payload
// scratch and taken back after, so the PE still holds one spare (the
// loan, or the pair path's gather buffer when the loan was too small)
// and never two. It charges the kernel's modeled cost.
func (st *localScratch[E]) sortPrefixed(data []E, less func(a, b E) bool, cost comm.Cost) {
	st.psc.Donate(st.reuse)
	st.reuse = nil
	seq.SortPrefixed(data, st.pfx, less, &st.psc)
	st.reuse = st.psc.Take()
	cost.Ops(seq.SortPrefixedOps(int64(len(data))))
}

// lastBegin readies the last AMS level's kernel state for a
// concatenation of at most bound elements.
func (st *localScratch[E]) lastBegin(bound int) {
	switch {
	case st.exact:
		st.hist = &seq.KeyedHist{}
	case st.hook != nil:
		st.pfx = slices.Grow(st.pfx[:0], bound)
	default:
		st.runs = st.runs[:0]
	}
}

// lastFeed is the last AMS level's per-sender step: it appends one
// sender's chunks to the rank-order concatenation buf and starts the
// run's kernel on them while the exchange is still running. An exact
// hook folds each chunk into the LSD radix histograms; an inexact one
// appends each chunk's prefixes to the sidecar, in the same rank order
// as buf, so the two stay aligned; without a hook the sender's span is
// stably sorted in place, one run per sender.
func (st *localScratch[E]) lastFeed(buf []E, chs [][]E, less func(a, b E) bool) []E {
	from := len(buf)
	for _, ch := range chs {
		switch {
		case st.exact:
			seq.HistKeyed(ch, st.hook, st.hist)
		case st.hook != nil:
			st.pfx = seq.ExtractPrefixes(st.pfx, ch, st.hook)
		}
		buf = append(buf, ch...)
	}
	if st.hook == nil && len(buf) > from {
		seq.SortStable(buf[from:], less)
		st.runs = append(st.runs, len(buf))
	}
	return buf
}

// lastFinish completes the stable sort of the concatenation next that
// lastFeed built and charges its modeled cost, with the retired level
// buffer as output or scratch: the LSD radix on the accumulated
// histograms (exact hook; whichever buffer holds the result is
// returned), the prefix radix over the sidecar (inexact hook), or one
// stable merge of the per-sender runs (no hook; ties go to the lower
// sender, as in the concatenation).
func (st *localScratch[E]) lastFinish(next []E, less func(a, b E) bool, cost comm.Cost) []E {
	n := int64(len(next))
	switch {
	case st.exact:
		scratch := st.grab(len(next))
		sorted, _ := seq.SortKeyedHist(next, st.hook, scratch[:cap(scratch)], st.hist)
		cost.Ops(seq.SortKeyedOps(n))
		return sorted
	case st.hook != nil:
		st.sortPrefixed(next, less, cost)
		return next
	}
	runs := make([][]E, len(st.runs))
	from := 0
	for i, end := range st.runs {
		runs[i] = next[from:end]
		cost.SortOps(int64(end - from))
		from = end
	}
	cost.Ops(seq.MultiwayOps(n, len(runs)))
	return seq.MultiwayInto(st.grab(len(next)), runs, less)
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
	// instead of recursing. Every kernel computes a stable sort of the
	// received chunks concatenated in sender-rank order (DESIGN.md §9),
	// so the prefix cache cannot change the bytes.
	last := r == c.Size()
	cls.End()
	m.Lap(c, level, PhaseBucketProcessing, int64(len(data)))

	// --- Phase: data delivery ------------------------------------------
	// The received chunks are copied into the next level's buffer in
	// rank order while the exchange is still running (streamConcat); at
	// the last level the copy loop also starts the run's kernel on each
	// sender's chunks (localScratch.lastFeed). (Under delivery's
	// Options.Batch knob the chunks all arrive after the exchange, in
	// rank order, and the same loop runs then — byte-identical; asserted
	// by the torture harness.)
	dopt := cfg.Delivery
	dopt.Seed = seed ^ 0x1f2e3d4c
	exch := m.rec.StartLevel(obs.SpanExchange, level)
	bound := recvBound(c.Size(), c.Rank(), r, globalSizes, starts)
	next := streamConcat(c, pieces, dopt, st.grab(bound), st, last, less)
	total := len(next)
	// data is dead once the fence of the Lap below has passed: every PE
	// holding chunks into it has copied them out. Retire it for recycling.
	st.retire(data)
	cost.Scan(int64(total))
	m.Lap(c, level, PhaseDataDelivery, int64(total))
	exch.N(int64(total)).End()

	if last {
		t4 := cost.Now()
		ls := m.rec.StartLevel(obs.SpanLocalSort, level).N(int64(total))
		sorted := st.lastFinish(next, less, cost)
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
	// The Appendix-D fix-up (seq.TieTable, DESIGN.md §9): the element at
	// position i equal to a splitter key goes after the splitters of
	// that key's run whose (PE, position) tags precede its own (me, i).
	// Inside a run the tags are sorted by (pe, idx), so from this PE a
	// tag is a position threshold: −1 for a lower-PE tag, an own tag's
	// idx, MaxInt32 for a higher-PE tag.
	me := int32(c.Rank())
	runLo := make([]int32, len(keys))
	tag := make([]int32, len(keys))
	for j, s := range splitters {
		if j > 0 && !less(keys[j-1], keys[j]) {
			runLo[j] = runLo[j-1]
		} else {
			runLo[j] = int32(j)
		}
		switch {
		case s.pe < me:
			tag[j] = -1
		case s.pe > me:
			tag[j] = math.MaxInt32
		default:
			tag[j] = s.idx
		}
	}
	ties := seq.NewTieTable(runLo, tag)

	var bounds []int
	var levels int
	if spfx := splitterPrefixes(keys, st.hook); spfx != nil {
		// The branchless uint64 descent over the splitters' prefixes.
		// Only elements whose prefix collides with a splitter's leave it:
		// under an exact hook the equal-prefix splitters are the key's
		// run, so the tie table resolves them (a whole run of equal
		// elements at once); a coarse prefix binary-searches the run
		// with the comparator first. For everything else a strict
		// prefix inequality already decides the order.
		pc := seq.NewPrefixClassifier(spfx)
		levels = pc.Levels()
		if len(st.ids) < len(data) {
			st.ids = make([]uint16, len(data))
		}
		if st.exact {
			seq.ClassifyKeyedTies(data, st.hook, pc, st.ids, ties)
		} else {
			seq.ClassifyPrefixed(data, st.hook, pc, st.ids, func(i, lo, hi int) int {
				x := data[i]
				hi = lo + seq.UpperBound(keys[lo:hi], x, less)
				if hi == 0 || less(keys[hi-1], x) {
					return hi
				}
				return ties.Bucket(i, int(runLo[hi-1]))
			})
		}
		bounds = seq.PartitionInPlaceIDs(data, nb, st.ids[:len(data)])
	} else {
		// The generic comparator tree (NoPrefix, element types without a
		// prefix): x ≥ keys[b-1] by construction, so one more compare
		// tells an element equal to a splitter key, which goes to the
		// tie table.
		cls := seq.NewClassifier(keys, less)
		levels = cls.Levels()
		i := 0
		bounds, st.ids = seq.PartitionInPlace(data, nb, func(x E) int {
			b := cls.Bucket(x)
			if b > 0 && !less(keys[b-1], x) {
				b = ties.Bucket(i, int(runLo[b-1]))
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
