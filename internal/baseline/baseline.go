// Package baseline implements the comparison algorithms the paper
// positions itself against (§1, §3, §7.3):
//
//   - GVSampleSort: classic single-level sample sort with centralized
//     splitter generation (Gerbessiotis/Valiant [13], TritonSort/
//     Baidu-Sort style): the sample is gathered and sorted on one PE —
//     a sequential bottleneck — and the data exchange sends p-1 direct
//     messages per PE.
//   - MPSort: MP-sort [12] style single-level multiway mergesort that
//     "implements local multiway merging by sorting from scratch", with
//     direct delivery.
//   - BitonicSort: Batcher's bitonic sort over the PEs — the classic
//     log²p-round algorithm that moves all data Θ(log² p) times; the
//     "prohibitive communication volume" extreme of §1.
//
// Like core's sorters, every baseline consumes its input: the data
// slice is sorted or partitioned in place, so its contents after the
// call are unspecified (callers that need the original must copy). And
// like them, every baseline books its phases through a core.Meter, so
// its Stats keep the same invariants (DESIGN.md §12).
package baseline

import (
	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/msel"
	"pmsort/internal/prng"
	"pmsort/internal/seq"
	"pmsort/internal/wire"
)

// registerWire registers every payload type the baselines can put on a
// serializing backend for element type E. Idempotent; every baseline
// entry point calls it before its first message.
func registerWire[E any]() {
	coll.RegisterWire[E]()
	coll.RegisterWire[med[E]]() // hc-quicksort gossips (median, weight) pairs
	wire.Register[probeSlot[E]]()
	wire.Register[[]probeSlot[E]]()
	msel.RegisterWire[E]()
}

// GVSampleSort sorts with single-level sample sort and centralized
// splitter selection. Oversampling a defaults to 16·log₂(p)+1 samples
// per PE. The output imbalance is whatever the splitters give — there is
// no overpartitioning rescue.
func GVSampleSort[E any](c comm.Communicator, data []E, less func(a, b E) bool, seed uint64) ([]E, *core.Stats) {
	registerWire[E]()
	cost := c.Cost()
	p := c.Size()
	m := core.NewMeter[E](c)
	if p == 1 {
		seq.Sort(data, less)
		cost.SortOps(int64(len(data)))
		m.Lap(c, 0, core.PhaseLocalSort, int64(len(data)))
		return data, m.Total()
	}

	// Splitter selection: local samples gathered and sorted at PE 0.
	logp := 0
	for v := 1; v < p; v <<= 1 {
		logp++
	}
	a := 16*logp + 1
	if a > len(data) {
		a = len(data)
	}
	rng := prng.New(seed).Fork(uint64(c.Rank()))
	sample := make([]E, a)
	for i := range sample {
		sample[i] = data[rng.Intn(len(data))]
	}
	gathered := coll.Gatherv(c, 0, sample)
	var splitters []E
	if gathered != nil {
		all := flatten(gathered)
		seq.Sort(all, less)
		cost.SortOps(int64(len(all))) // the sequential bottleneck
		splitters = make([]E, 0, p-1)
		for j := 1; j < p; j++ {
			splitters = append(splitters, all[j*len(all)/p])
		}
	}
	splitters = coll.Bcast(c, 0, splitters, int64(p-1))
	m.Lap(c, 0, core.PhaseSplitterSelection, int64(a))

	// Bucket processing: partition into p buckets, in place.
	var bounds []int
	if len(splitters) > 0 {
		cls := seq.NewClassifier(splitters, less)
		bounds, _ = seq.PartitionInPlace(data, p, cls.Bucket, nil)
		cost.PartitionOps(seq.ClassifyOps(int64(len(data)), cls.Levels()))
		cost.Scan(2 * int64(len(data)))
	} else {
		bounds = make([]int, p+1)
		for i := 1; i <= p; i++ {
			bounds[i] = len(data)
		}
	}
	m.Lap(c, 0, core.PhaseBucketProcessing, int64(len(data)))

	// Data delivery: direct all-to-allv, piece i to PE i.
	out := make([][]E, p)
	for i := 0; i < p; i++ {
		out[i] = data[bounds[i]:bounds[i+1]]
	}
	in := coll.AlltoallvDirect(c, out)
	var n int
	for _, chunk := range in {
		n += len(chunk)
	}
	recv := make([]E, 0, n)
	for _, chunk := range in {
		recv = append(recv, chunk...)
	}
	cost.Scan(int64(n))
	m.Lap(c, 0, core.PhaseDataDelivery, int64(n))

	// Local sort of the received buckets.
	seq.Sort(recv, less)
	cost.SortOps(int64(len(recv)))
	m.Lap(c, 0, core.PhaseLocalSort, int64(len(recv)))
	return recv, m.Total()
}

// MPSort sorts MP-sort style [12]: single-level multiway mergesort with
// exact splitting (multisequence selection after a local sort), direct
// message delivery, and a final local sort from scratch instead of a
// merge of the received runs — the design §7.3 shows does not scale for
// small inputs.
func MPSort[E any](c comm.Communicator, data []E, less func(a, b E) bool, seed uint64) ([]E, *core.Stats) {
	registerWire[E]()
	cost := c.Cost()
	p := c.Size()
	m := core.NewMeter[E](c)

	// Initial local sort.
	seq.Sort(data, less)
	cost.SortOps(int64(len(data)))
	m.Lap(c, 0, core.PhaseLocalSort, int64(len(data)))
	if p == 1 {
		return data, m.Total()
	}

	// Exact splitters for all p parts at once.
	n := coll.Allreduce(c, int64(len(data)), 1, func(a, b int64) int64 { return a + b })
	targets := make([]int64, p-1)
	for j := 1; j < p; j++ {
		targets[j-1] = int64(j) * n / int64(p)
	}
	pos := msel.Select(c, data, targets, less, seed)
	m.Lap(c, 0, core.PhaseSplitterSelection, 0)

	// Direct delivery of the p pieces.
	out := make([][]E, p)
	prev := 0
	for j := 0; j < p-1; j++ {
		out[j] = data[prev:pos[j]]
		prev = pos[j]
	}
	out[p-1] = data[prev:]
	in := coll.AlltoallvDirect(c, out)
	var total int
	for _, chunk := range in {
		total += len(chunk)
	}
	m.Lap(c, 0, core.PhaseDataDelivery, int64(total))

	// "Local multiway merging by sorting from scratch."
	recv := make([]E, 0, total)
	for _, chunk := range in {
		recv = append(recv, chunk...)
	}
	seq.Sort(recv, less)
	cost.SortOps(int64(len(recv)))
	m.Lap(c, 0, core.PhaseBucketProcessing, int64(total))
	return recv, m.Total()
}

// BitonicSort sorts with Batcher's bitonic network over the PEs: every
// PE sorts locally, then log²(p) compare-split rounds exchange whole
// sequences with hypercube partners. p must be a power of two. Per-PE
// element counts are preserved exactly.
func BitonicSort[E any](c comm.Communicator, data []E, less func(a, b E) bool, _ uint64) ([]E, *core.Stats) {
	const tagBitonic = 0x6e0001
	registerWire[E]()
	cost := c.Cost()
	p := c.Size()
	if p&(p-1) != 0 {
		panic("baseline: BitonicSort requires a power-of-two number of PEs")
	}
	m := core.NewMeter[E](c)

	seq.Sort(data, less)
	cost.SortOps(int64(len(data)))
	m.Lap(c, 0, core.PhaseLocalSort, int64(len(data)))

	rank := c.Rank()
	cur := data
	var recvd int64 // elements received over all rounds
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			partner := rank ^ j
			keepLow := (rank&j == 0) == (rank&k == 0)
			c.Send(partner, tagBitonic, cur, int64(len(cur)))
			pl, _ := c.Recv(partner, tagBitonic)
			other := pl.([]E)
			recvd += int64(len(other))
			// Both partners must compute the IDENTICAL merged sequence or
			// the low/high split is not a partition of their union: Merge2
			// is left-biased on ties, so always feed the lower rank's data
			// first. Merging own-data-first duplicates one element of every
			// tied cross-partner pair and drops another — invisible with
			// scalar keys (tied values are interchangeable), caught by the
			// torture harness's tie-heavy struct elements.
			var merged []E
			if rank < partner {
				merged = seq.Merge2(cur, other, less)
			} else {
				merged = seq.Merge2(other, cur, less)
			}
			cost.Ops(int64(len(merged)))
			// Preserve my element count: low keeps the smallest len(cur),
			// high keeps the largest len(cur).
			if keepLow {
				cur = merged[:len(cur):len(cur)]
			} else {
				cur = merged[len(merged)-len(cur):]
			}
		}
	}
	m.Lap(c, 0, core.PhaseDataDelivery, recvd)
	return cur, m.Total()
}

func addI64(a, b int64) int64 { return a + b }

func flatten[T any](lists [][]T) []T {
	var out []T
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
