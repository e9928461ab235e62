// Package comm is the communication layer the sorting algorithms are
// written against: the subset of MPI the paper's algorithms need (§2),
// split along the line range-based communicators draw. A Communicator is
// an ordered group of processing elements with point-to-point messaging
// and cheap, purely local group splitting; it is one concrete type (Group)
// over a small per-PE Endpoint, which is all a backend implements:
//
//   - internal/sim: the deterministic virtual-time simulator with the
//     paper's single-ported α-β cost model. Cost annotations advance the
//     virtual clock; nothing runs at hardware speed.
//   - internal/native: p goroutines of one process handing payloads over
//     by reference, with no virtual-time bookkeeping. Cost annotations
//     are no-ops; Now reads the wall clock, so the same phase-timing code
//     reports real elapsed time.
//   - internal/netcomm: p single-PE processes meshed over TCP, with
//     payloads crossing process boundaries through the typed codec of
//     internal/wire. Wall-clock costs like native.
//
// All three match messages in the one Mailbox of this package, and the
// chaos middleware and WithTagOffset are endpoint wrappers, so group
// geometry, rank translation, and the FIFO contract exist exactly once.
//
// Everything above point-to-point — the collectives in internal/coll,
// data delivery, multisequence selection, AMS-sort, RLM-sort, and all
// baselines — takes a Communicator, so an algorithm written once runs
// simulated (for model experiments at 10k+ PEs), native (for real
// multicore sorting), and distributed over TCP without change.
// See DESIGN.md §6 and §7.
//
// Payload contract: ownership of a sent payload transfers to the
// receiver, and since backend 3 the boundary may also be a
// serialization boundary — a payload must be of a wire-registered type
// (the algorithm entry points register everything they send via the
// RegisterWire helpers), and senders must never mutate a payload after
// Send even though the in-process backends pass it by reference.
// Payloads delivered to multiple PEs are shared and read-only; on the
// TCP backend every receiver instead gets its own decoded copy, which
// satisfies the same conventions trivially.
package comm

import (
	"fmt"
	"sync"
	"time"
)

// Endpoint is one PE's point-to-point transport — what a backend (or a
// middleware wrapping one) implements. Ranks are backend-global; the
// Group on top translates group-relative ranks and checks bounds.
type Endpoint interface {
	// Send transmits a message to the PE with global rank `to`. Sends
	// are eager and buffered: they never block on the receiver. Payload
	// ownership transfers to the receiver. words is the modeled message
	// size in machine words (8 bytes ≙ one element); backends without a
	// cost model ignore it.
	Send(to, tag int, payload any, words int64)
	// Recv blocks until the message with the given tag from the PE with
	// global rank `from` arrives and returns its payload and declared
	// size in words. Messages between one (sender, tag) pair are
	// delivered FIFO.
	Recv(from, tag int) (payload any, words int64)
	// Cost returns this PE's cost-annotation hook for the group with the
	// given members (global ranks): the simulator's BarrierSync models
	// the barrier over the group's size and widest link; real backends
	// ignore the members.
	Cost(members []int) Cost
}

// Communicator is an ordered group of PEs with this PE's position in it:
// the one type every algorithm takes.
type Communicator = *Group

// Group is the communicator: the global ranks of the members, this PE's
// index among them, and the PE's endpoint. Group-relative ranks
// 0..Size()-1 address members. A Group is immutable, and splitting is a
// purely local operation — no communication happens (the paper excludes
// MPI communicator construction from its timings for the same reason).
// Whether several goroutines may use one Group at once is the
// endpoint's call: the in-process backends bind a PE to the goroutine
// running it, netcomm allows concurrent use (see its package doc).
type Group struct {
	ep    Endpoint
	ranks []int // global ranks of the members
	me    int   // index of this PE in ranks
}

// NewGroup returns the communicator of the given members (global ranks,
// shared and never modified) in which this PE — the owner of ep — is
// member me. Backends build their world communicator with it.
func NewGroup(ep Endpoint, members []int, me int) *Group {
	return &Group{ep: ep, ranks: members, me: me}
}

// WorldRanks returns the member list 0..p-1 of a world communicator.
func WorldRanks(p int) []int {
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.ranks) }

// Rank returns this PE's group-relative rank.
func (g *Group) Rank() int { return g.me }

// GlobalRank translates a group-relative rank to a backend-global rank
// (the PE numbering of the machine the group was split from).
func (g *Group) GlobalRank(r int) int { return g.ranks[r] }

// Send transmits a message to the member with group-relative rank `to`
// (see Endpoint.Send for the contract).
func (g *Group) Send(to, tag int, payload any, words int64) {
	if to < 0 || to >= len(g.ranks) {
		panic(fmt.Sprintf("comm: send from PE %d to invalid group rank %d (group size %d)", g.ranks[g.me], to, len(g.ranks)))
	}
	g.ep.Send(g.ranks[to], tag, payload, words)
}

// Recv blocks until the message with the given tag from the member with
// group-relative rank `from` arrives (see Endpoint.Recv).
func (g *Group) Recv(from, tag int) (payload any, words int64) {
	if from < 0 || from >= len(g.ranks) {
		panic(fmt.Sprintf("comm: recv on PE %d from invalid group rank %d (group size %d)", g.ranks[g.me], from, len(g.ranks)))
	}
	return g.ep.Recv(g.ranks[from], tag)
}

// SplitEqual partitions the members into `groups` balanced contiguous
// groups (sizes differing by at most one, larger groups first) and
// returns the communicator of this PE's group together with the group
// index.
func (g *Group) SplitEqual(groups int) (Communicator, int) {
	starts, ok := EqualStarts(len(g.ranks), groups)
	if !ok {
		panic(fmt.Sprintf("comm: SplitEqual(%d) on communicator of size %d", groups, len(g.ranks)))
	}
	return g.SplitStarts(starts)
}

// SplitStarts partitions the members into contiguous groups given by
// starts: group i consists of member indices starts[i]..starts[i+1]-1,
// with starts[0] == 0 and starts[len-1] == Size(). Empty groups are
// allowed for groups this PE is not part of. Returns this PE's group
// communicator and group index.
func (g *Group) SplitStarts(starts []int) (Communicator, int) {
	lo, hi, idx, ok := SplitBounds(starts, len(g.ranks), g.me)
	if !ok {
		panic(fmt.Sprintf("comm: SplitStarts with invalid bounds %v for size %d rank %d", starts, len(g.ranks), g.me))
	}
	return g.Subset(lo, hi), idx
}

// SplitModulo partitions the members into m groups by rank modulo m
// (group i holds the members with rank ≡ i mod m — "column" groups of a
// row-major grid). Returns this PE's group communicator and group index.
func (g *Group) SplitModulo(m int) (Communicator, int) {
	ranks, me, idx, ok := ModuloRanks(g.ranks, g.me, m)
	if !ok {
		panic(fmt.Sprintf("comm: SplitModulo(%d) on communicator of size %d", m, len(g.ranks)))
	}
	return &Group{ep: g.ep, ranks: ranks, me: me}, idx
}

// Subset returns the communicator of members [lo, hi). This PE must be
// a member of the subset.
func (g *Group) Subset(lo, hi int) Communicator {
	if lo < 0 || hi > len(g.ranks) || g.me < lo || g.me >= hi {
		panic(fmt.Sprintf("comm: Subset(%d,%d) of size %d does not contain rank %d", lo, hi, len(g.ranks), g.me))
	}
	return &Group{ep: g.ep, ranks: g.ranks[lo:hi], me: g.me - lo}
}

// Cost returns this PE's cost-annotation hook. The simulator charges
// annotations against the virtual clock; other backends ignore them.
func (g *Group) Cost() Cost { return g.ep.Cost(g.ranks) }

// Endpoint returns the endpoint the group sends and receives through:
// the backend's, or the outermost middleware wrapped around it.
func (g *Group) Endpoint() Endpoint { return g.ep }

// WithEndpoint returns the same group over another endpoint — how
// middleware (chaos, WithTagOffset) interposes on every message of the
// group and of everything split from it.
func (g *Group) WithEndpoint(ep Endpoint) *Group {
	return &Group{ep: ep, ranks: g.ranks, me: g.me}
}

// Capability returns the optional interface T (an obs recorder source,
// netcomm's mesh health) of the communicator's endpoint. Middleware that
// wants to stay transparent to such lookups implements
// Unwrap() Endpoint; one that does not (WithTagOffset) hides them.
func Capability[T any](c Communicator) (T, bool) {
	for ep := c.ep; ep != nil; {
		if t, ok := ep.(T); ok {
			return t, true
		}
		u, ok := ep.(interface{ Unwrap() Endpoint })
		if !ok {
			break
		}
		ep = u.Unwrap()
	}
	var zero T
	return zero, false
}

// Cost is the cost-annotation hook of a Communicator. Algorithms
// annotate their local work through it; the simulated backend turns the
// annotations into virtual time under its calibrated cost model, while
// real backends implement them as no-ops (real work costs real time all
// by itself). Now and BarrierSync double as the clock the phase
// statistics are measured on — virtual in the simulator, wall in the
// native backend — so Stats code is backend-neutral too.
type Cost interface {
	// Ops annotates n compare-and-move operations (sorting, merging).
	Ops(n int64)
	// PartitionOps annotates n branchless partition steps
	// (element × splitter-tree level).
	PartitionOps(n int64)
	// Scan annotates n sequential scan/copy steps.
	Scan(n int64)
	// SortOps annotates comparison-sorting n elements
	// (n · ⌈log₂ n⌉ compare-and-move operations).
	SortOps(n int64)
	// Now returns this PE's clock in nanoseconds (virtual time in the
	// simulator, wall time since the run started in real backends).
	Now() int64
	// BarrierSync finalizes a timed barrier whose members agreed on the
	// common entry time `entry` (the maximum of their clocks) and
	// returns the barrier's exit time. The simulator replaces the
	// barrier's internal message costs with a modeled, globally
	// identical exit time; real backends return entry unchanged.
	BarrierSync(entry int64) int64
}

// WallClock is the Cost implementation for backends that run at real
// hardware speed: all annotations are no-ops and Now reads the wall
// clock relative to Epoch, so the backend-neutral phase statistics
// report real elapsed nanoseconds.
type WallClock struct {
	Epoch time.Time
}

// Ops is a no-op: real compare-and-moves cost real time by themselves.
func (WallClock) Ops(int64) {}

// PartitionOps is a no-op.
func (WallClock) PartitionOps(int64) {}

// Scan is a no-op.
func (WallClock) Scan(int64) {}

// SortOps is a no-op.
func (WallClock) SortOps(int64) {}

// Now returns the wall-clock nanoseconds elapsed since Epoch.
func (w WallClock) Now() int64 { return time.Since(w.Epoch).Nanoseconds() }

// BarrierSync returns entry unchanged: the collective that computed it
// already synchronized the members for real.
func (WallClock) BarrierSync(entry int64) int64 { return entry }

// GroupSizes returns the sizes of `groups` balanced contiguous groups
// of a communicator of the given size: sizes differ by at most one,
// larger groups first. It is the sizing rule behind SplitEqual and is
// exported so that algorithms (data delivery) can compute group
// geometry without communication.
func GroupSizes(size, groups int) []int {
	base, rem := size/groups, size%groups
	out := make([]int, groups)
	for g := range out {
		out[g] = base
		if g < rem {
			out[g]++
		}
	}
	return out
}

// EqualStarts returns the member-index boundaries of `groups` balanced
// contiguous groups of a communicator of the given size (the starts
// vector SplitEqual feeds to SplitStarts). ok is false for an invalid
// group count.
func EqualStarts(size, groups int) (starts []int, ok bool) {
	if groups <= 0 || groups > size {
		return nil, false
	}
	sizes := GroupSizes(size, groups)
	starts = make([]int, groups+1)
	for g := 0; g < groups; g++ {
		starts[g+1] = starts[g] + sizes[g]
	}
	return starts, true
}

// SplitBounds locates member me in the contiguous partition given by
// starts over a communicator of the given size: it returns the member
// window [lo, hi) and group index g of me's group. ok is false when the
// bounds are malformed or do not cover me.
func SplitBounds(starts []int, size, me int) (lo, hi, g int, ok bool) {
	if len(starts) < 2 || starts[0] != 0 || starts[len(starts)-1] != size {
		return 0, 0, 0, false
	}
	// Locate my group by scanning; group counts are small (O(r)). The
	// scan also validates monotonicity: decreasing bounds would assign
	// some members to several groups, and PEs would silently disagree on
	// the group geometry.
	found, flo, fhi, fg := false, 0, 0, 0
	for g := 0; g+1 < len(starts); g++ {
		lo, hi := starts[g], starts[g+1]
		if lo > hi {
			return 0, 0, 0, false
		}
		if !found && me >= lo && me < hi {
			found, flo, fhi, fg = true, lo, hi, g
		}
	}
	return flo, fhi, fg, found
}

// ModuloRanks strides the member rank list into the modulo-m group of
// member me: it returns the global ranks of me's group, me's rank
// within it, and the group index. ok is false for an invalid m.
func ModuloRanks(ranks []int, me, m int) (sub []int, newMe, g int, ok bool) {
	if m <= 0 || m > len(ranks) {
		return nil, 0, 0, false
	}
	g = me % m
	sub = make([]int, 0, (len(ranks)-g+m-1)/m)
	for i := g; i < len(ranks); i += m {
		sub = append(sub, ranks[i])
	}
	return sub, me / m, g, true
}

// RunPEs is the Run of an in-process machine: it executes fn(rank) for
// every PE — one per mailbox, each on its own goroutine — and waits for
// all of them. When a PE panics, every mailbox is poisoned, so peers
// parked in Take on a message the dead PE will never send unwind instead
// of hanging the machine; once all PEs are out, RunPEs re-panics on the
// caller with the first panic and its PE. A machine whose Run panicked
// stays poisoned.
func RunPEs(boxes []*Mailbox, fn func(rank int)) {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first any
	)
	wg.Add(len(boxes))
	for rank := range boxes {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() {
						first = fmt.Sprintf("PE %d: %v", rank, r)
						unwind := fmt.Sprintf("comm: unwound because PE %d panicked", rank)
						for _, mb := range boxes {
							mb.Poison(unwind)
						}
					})
				}
			}()
			fn(rank)
		}(rank)
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
