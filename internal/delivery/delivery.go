// Package delivery implements the data redistribution step of the
// multi-level sorters (paper §4.3): each PE has partitioned its local
// data into r pieces; piece j must move to PE group j (r balanced
// contiguous groups of the communicator), and every PE of a group must
// receive an (almost) equal share of the group's data.
//
// Four strategies are provided:
//
//   - Simple: plain vector-valued prefix sum over piece sizes; piece
//     positions map to group PEs by quota. Sends ≤ 2r messages per PE but
//     can force Ω(p) tiny receives on adversarial inputs (§4.3, Fig. 3).
//   - Randomized: the simple algorithm, but positions map to the group's
//     PEs through a pseudorandom permutation of the PE numbering
//     (the first randomization stage of §4.3).
//   - RandomizedAdvanced: additionally breaks pieces larger than
//     s = a·n/(rp) into chunks of size s, delegates their placement to
//     pseudorandomly chosen PEs, and randomly interleaves delegated
//     pieces with local ones (Appendix A) — O(r) receives w.h.p.
//   - Deterministic: the two-phase small/large algorithm of §4.3.1 —
//     O(r) receives guaranteed.
//
// All strategies preserve perfect balance: a PE of a group holding m
// elements in total receives ⌊m/g⌋ or ⌈m/g⌉ of them.
package delivery

import (
	"fmt"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/obs"
	"pmsort/internal/wire"
)

// RegisterWire registers the payload types a delivery of E elements can
// put on a serializing backend: the outbox chunks of the bulk exchange
// plus the collective shapes of E. The element-independent descriptor
// and reply types are registered once at init. Idempotent.
func RegisterWire[E any]() {
	wire.Register[chunk[E]]()
	wire.Register[[]chunk[E]]()
	coll.RegisterWire[E]()
}

func init() {
	coll.RegisterWire[desc]()       // deterministic: descriptors gather per group
	coll.RegisterWire[delegDesc]()  // advanced: delegated sub-piece announcements
	coll.RegisterWire[delegReply]() // advanced: assigned positions
	wire.Register[reply]()          // deterministic: manager -> origin spans
}

// Strategy selects the redistribution algorithm.
type Strategy int

const (
	// Simple is the naive prefix-sum algorithm (the paper's experiments
	// use it for random inputs, §7.1).
	Simple Strategy = iota
	// Randomized permutes the PE numbering used by the prefix sum.
	Randomized
	// RandomizedAdvanced additionally splits and delegates large pieces
	// (Appendix A).
	RandomizedAdvanced
	// Deterministic is the small/large two-phase algorithm of §4.3.1.
	Deterministic
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Simple:
		return "simple"
	case Randomized:
		return "randomized"
	case RandomizedAdvanced:
		return "randomized-advanced"
	case Deterministic:
		return "deterministic"
	}
	return "invalid"
}

// Exchange selects the all-to-all implementation for the bulk exchange.
type Exchange int

const (
	// OneFactor uses the 1-factor algorithm [31] and omits empty messages.
	OneFactor Exchange = iota
	// Direct sends one message to every PE, mpich-alltoallv style.
	Direct
)

// Options configures a delivery.
type Options struct {
	Strategy Strategy
	Exchange Exchange
	// Seed drives every pseudorandom choice; deliveries with equal seeds
	// and inputs are bit-identical.
	Seed uint64
	// SplitFactorA is the a in the Appendix A chunk limit s = a·n/(rp);
	// 0 picks the Lemma 6 value a ≈ (√(1+r/ln(rp)) - 1)/2.
	SplitFactorA float64
	// Batch disables the receive-driven streaming exchange:
	// DeliverStream holds every sender's chunks back until the exchange
	// has completed and then emits them in sender-rank order — the
	// original materialize-then-process bulk exchange, which is what
	// Deliver always is — so the sorters' streaming consumers do all
	// their per-chunk work after the exchange instead of overlapped into
	// it. Streamed and batch deliveries are byte-identical — the torture
	// harness randomizes this knob and asserts it — so Batch exists as
	// the conformance reference and an A/B lever, not as a semantic
	// switch. This package is the only place that branches on it.
	Batch bool
}

// chunk is a contiguous part of one sender's piece travelling through the
// bulk exchange.
type chunk[E any] struct {
	data []E
}

func chunkWords[E any](ch chunk[E]) int64 { return int64(len(ch.data)) + 1 }

// Deliver redistributes pieces[j] (j = 0..r-1) to group j. It must be
// called collectively by all members of c with the same options. The
// result is the list of chunks received by this PE in sender-rank
// order, each a contiguous slice of some sender's (sorted, if the
// sender sorted it) piece. Deliver materializes the full result after
// the exchange; DeliverStream hands out the same chunks as they
// arrive.
func Deliver[E any](c comm.Communicator, pieces [][]E, opt Options) [][]E {
	opt.Batch = false // this collector already is the batch path
	bySrc := make([][][]E, c.Size())
	DeliverStream(c, pieces, opt, func(src int, chunks [][]E) { bySrc[src] = chunks })
	var recv [][]E
	for _, chunks := range bySrc {
		recv = append(recv, chunks...)
	}
	return recv
}

// DeliverStream is the receive-driven variant of Deliver: same plans,
// same exchange schedule, same coalescing rule, but the received chunk
// lists are handed to emit per sender as that sender's message arrives
// (own chunks first, then the exchange's deterministic receive order),
// so the consumer's per-sender work — copying chunks into place,
// staging merge runs — overlaps the remaining bulk exchange instead of
// waiting behind it. emit is called exactly once per member of c, on
// the calling goroutine, with a possibly empty chunk list; re-ordering
// the emitted lists by src and concatenating reproduces Deliver's
// result exactly (the torture harness asserts byte identity). Under
// opt.Batch the same calls happen, but only after the exchange has
// completed and in sender-rank order.
//
// Coalescing (shared with Deliver): when a plan cuts one sender's piece
// into several spans that all land here, the zero-copy backends deliver
// sub-slices of one backing array back to back, and re-joining them
// keeps the loser-tree k of the merging sorters at the number of
// *senders*, not the number of plan spans (adversarial plans otherwise
// inflate the merge with tiny runs). Only adjacent entries of one
// sender's chunk list are joined, so merged-run order is unchanged — a
// stable multiway merge of the coalesced list produces byte-identical
// output to the uncoalesced one, which keeps serializing backends
// (whose decoded chunks are never memory-contiguous and thus never
// coalesce) in exact agreement with the zero-copy ones. Empty chunks
// are dropped.
func DeliverStream[E any](c comm.Communicator, pieces [][]E, opt Options, emit func(src int, chunks [][]E)) {
	RegisterWire[E]()
	r := len(pieces)
	if r == 0 || r > c.Size() {
		panic(fmt.Sprintf("delivery: %d pieces for %d PEs", r, c.Size()))
	}
	sp := obs.From(c).Start(obs.SpanDeliver)
	defer sp.End()
	var out [][]chunk[E]
	switch opt.Strategy {
	case Simple, Randomized:
		out = planPrefixSum(c, pieces, opt)
	case RandomizedAdvanced:
		out = planAdvanced(c, pieces, opt)
	case Deterministic:
		out = planDeterministic(c, pieces, opt)
	default:
		panic("delivery: unknown strategy")
	}
	h := func(src int, msg []chunk[E]) { emit(src, coalesce(msg)) }
	var held [][][]E // Batch: per-sender chunk lists, emitted after the exchange
	if opt.Batch {
		held = make([][][]E, c.Size())
		h = func(src int, msg []chunk[E]) { held[src] = coalesce(msg) }
	}
	if opt.Exchange == Direct {
		coll.AlltoallvDirectStreamFunc(c, out, chunkWords[E], h)
	} else {
		coll.Alltoallv1FactorStreamFunc(c, out, chunkWords[E], h)
	}
	for src, chunks := range held {
		emit(src, chunks)
	}
}

// coalesce drops empty chunks from one sender's list and re-joins
// memory-adjacent spans (see DeliverStream). Coalescing only within one
// sender's list matters: this PE receives exactly one piece index from
// every sender, so memory adjacency there means consecutive spans of
// that one piece. Across senders adjacency can be coincidental (callers
// may cut all ranks' locals out of one shared array), and joining those
// would fuse unrelated runs.
func coalesce[E any](msg []chunk[E]) [][]E {
	var out [][]E
	for _, ch := range msg {
		d := ch.data
		if len(d) == 0 {
			continue
		}
		if n := len(out); n > 0 && contiguous(out[n-1], d) {
			out[n-1] = out[n-1][:len(out[n-1])+len(d)]
		} else {
			out = append(out, d)
		}
	}
	return out
}

// contiguous reports whether b starts exactly where a ends in the same
// backing array, so a[:len(a)+len(b)] is their concatenation. The
// capacity guard keeps the probe re-slice in bounds and rules out
// distinct allocations (a slice's capacity never extends past its own
// array).
func contiguous[E any](a, b []E) bool {
	return len(a) > 0 && len(b) > 0 &&
		cap(a) >= len(a)+len(b) && &a[:len(a)+1][len(a)] == &b[0]
}

// groupGeometry captures the r balanced contiguous PE groups of c.
type groupGeometry struct {
	r      int
	starts []int // starts[g] = first member rank of group g; len r+1
}

func geometry(p, r int) groupGeometry {
	sizes := comm.GroupSizes(p, r)
	starts := make([]int, r+1)
	for g := 0; g < r; g++ {
		starts[g+1] = starts[g] + sizes[g]
	}
	return groupGeometry{r: r, starts: starts}
}

func (gg groupGeometry) size(g int) int  { return gg.starts[g+1] - gg.starts[g] }
func (gg groupGeometry) start(g int) int { return gg.starts[g] }

// quotaStart returns the first element position owned by slot t when m
// elements are split over g balanced slots (larger slots first).
func quotaStart(t int, m int64, g int) int64 {
	base, rem := m/int64(g), m%int64(g)
	tt := int64(t)
	s := tt * base
	if tt < rem {
		s += tt
	} else {
		s += rem
	}
	return s
}

// slotOf returns the slot owning element position pos under the balanced
// split of m elements over g slots.
func slotOf(pos, m int64, g int) int {
	base, rem := m/int64(g), m%int64(g)
	if base == 0 {
		return int(pos)
	}
	cut := rem * (base + 1)
	if pos < cut {
		return int(pos / (base + 1))
	}
	return int(rem + (pos-cut)/base)
}

// splitRange decomposes positions [lo, hi) into per-slot intervals.
func splitRange(lo, hi, m int64, g int, emit func(slot int, from, to int64)) {
	pos := lo
	for pos < hi {
		t := slotOf(pos, m, g)
		end := quotaStart(t+1, m, g)
		if end > hi {
			end = hi
		}
		emit(t, pos, end)
		pos = end
	}
}

// addVec is the element-wise int64 vector sum (pure).
func addVec(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}
