package delivery

import (
	"math"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/prng"
)

// delegDesc describes one delegated size-s sub-piece (Appendix A).
type delegDesc struct {
	group int
	size  int64
}

// delegReply returns the group position assigned to a delegated
// sub-piece. Replies travel in the same per-(origin,delegate) order as
// the descriptors, so no ids are needed.
type delegReply struct {
	pos int64
}

// planAdvanced builds outboxes with the advanced randomized algorithm of
// Appendix A:
//
//  1. Pieces larger than s = a·n/(rp) are broken into ⌊x/s⌋ sub-pieces of
//     size s plus a remainder; the remainder and originally-small pieces
//     stay local ("the random permutation of the PE numbers takes care of
//     their random placement").
//  2. The size-s sub-pieces are enumerated globally with a prefix sum and
//     delegated: sub-piece i is announced to PE π(i) mod p for a shared
//     pseudorandom permutation π — only the descriptor moves, not the data.
//  3. Every PE randomly interleaves its local slots and delegated slots
//     per group, a vector-valued prefix sum enumerates the group
//     positions, and delegates reply the assigned positions to the
//     origins.
//  4. Origins then send the actual data to the PEs owning those position
//     ranges, through the permuted PE numbering of the first stage.
func planAdvanced[E any](c comm.Communicator, pieces [][]E, opt Options) [][]chunk[E] {
	r := len(pieces)
	p := c.Size()
	gg := geometry(p, r)
	cost := c.Cost()

	sizes := make([]int64, r)
	for j, piece := range pieces {
		sizes[j] = int64(len(piece))
	}
	_, totals, _ := coll.ScanTotal(c, sizes, int64(r), addVec)
	var n int64
	for _, m := range totals {
		n += m
	}

	// Chunk limit s = a·n/(rp), with the Lemma 6 tuning a ≈
	// (√(1 + r/ln(rp)) − 1)/2 when not overridden.
	a := opt.SplitFactorA
	if a <= 0 {
		a = 0.5 * (math.Sqrt(1+float64(r)/math.Log(float64(r)*float64(p)+2)) - 1)
		if a < 0.5 {
			a = 0.5
		}
	}
	s := int64(a * float64(n) / (float64(r) * float64(p)))
	if s < 1 {
		s = 1
	}

	// Local slots: small pieces and remainders (size, group, offset).
	type slot struct {
		group     int
		size      int64
		local     bool  // true: my own data at pieces[group][off:off+size]
		off       int64 // local: offset into my piece
		delegFrom int   // delegated: origin comm rank
		delegIdx  int   // delegated: index within the (origin,me) stream
	}
	var slots []slot
	// Delegated sub-pieces I am sending out, in global enumeration order.
	type subpiece struct {
		group int
		off   int64
		size  int64
	}
	var mySubs []subpiece
	for j := 0; j < r; j++ {
		x := sizes[j]
		if x == 0 {
			continue
		}
		full := x / s
		rem := x % s
		if full == 0 {
			slots = append(slots, slot{group: j, size: x, local: true, off: 0})
			continue
		}
		for q := int64(0); q < full; q++ {
			mySubs = append(mySubs, subpiece{group: j, off: q * s, size: s})
		}
		if rem > 0 {
			slots = append(slots, slot{group: j, size: rem, local: true, off: full * s})
		}
	}

	// Global enumeration of delegated sub-pieces.
	kLocal := int64(len(mySubs))
	kPrefix, kTotal, ok := coll.ScanTotal(c, kLocal, 1, func(x, y int64) int64 { return x + y })
	if !ok {
		kPrefix = 0
	}
	var perm *prng.Permutation
	if kTotal > 0 {
		perm = prng.NewPermutation(uint64(kTotal), opt.Seed^0xa5a5a5a5)
	}
	delegateOf := func(globalIdx int64) int {
		return int(perm.Apply(uint64(globalIdx)) % uint64(p))
	}

	// Announce sub-pieces to their delegates.
	descOut := make([][]delegDesc, p)
	subDelegate := make([]int, len(mySubs))
	subStreamIdx := make([]int, len(mySubs)) // order within the (me,delegate) stream
	for q, sub := range mySubs {
		d := delegateOf(kPrefix + int64(q))
		subDelegate[q] = d
		subStreamIdx[q] = len(descOut[d])
		descOut[d] = append(descOut[d], delegDesc{group: sub.group, size: sub.size})
	}
	descIn := coll.Alltoallv1FactorFunc(c, descOut, func(delegDesc) int64 { return 2 })

	// Delegated slots join my local ones.
	for origin, ds := range descIn {
		for i, d := range ds {
			slots = append(slots, slot{group: d.group, size: d.size, delegFrom: origin, delegIdx: i})
		}
	}

	// Random interleaving per PE (Appendix A: "a PE reorders its small
	// pieces and delegated large pieces randomly").
	rng := prng.New(opt.Seed).Fork(uint64(c.Rank()) + 0x51ed)
	for i := len(slots) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
	cost.Scan(int64(len(slots)))

	// Enumerate group positions of my slots with one vector prefix sum in
	// permuted PE order (stage 1 randomization).
	slotTotals := make([]int64, r)
	for _, sl := range slots {
		slotTotals[sl.group] += sl.size
	}
	base, _ := permutedScanTotal(c, slotTotals, senderPerm(c, opt))
	cursor := append([]int64(nil), base...)
	slotPos := make([]int64, len(slots))
	for i, sl := range slots {
		slotPos[i] = cursor[sl.group]
		cursor[sl.group] += sl.size
	}

	// Reply assigned positions to the origins, preserving per-origin
	// descriptor order.
	replyOut := make([][]delegReply, p)
	for origin := range replyOut {
		replyOut[origin] = make([]delegReply, len(descIn[origin]))
	}
	for i, sl := range slots {
		if !sl.local {
			replyOut[sl.delegFrom][sl.delegIdx] = delegReply{pos: slotPos[i]}
		}
	}
	replyIn := coll.Alltoallv1FactorFunc(c, replyOut, func(delegReply) int64 { return 1 })

	// Assemble outboxes: delegated sub-pieces use the replied positions,
	// local slots the locally known ones. The sub-pieces go first: a
	// target belongs to one group, so where a piece's remainder (offset
	// full·s) lands on the same target as its last sub-piece, it directly
	// follows that sub-piece in the outbox, and a zero-copy receiver
	// coalesces the two into one span.
	out := make([][]chunk[E], p)
	emit := func(j int, piece []E, off, size, pos int64) {
		g := gg.size(j)
		splitRange(pos, pos+size, totals[j], g, func(t int, from, to int64) {
			target := gg.start(j) + t
			lo := off + (from - pos)
			out[target] = append(out[target], chunk[E]{data: piece[lo : lo+(to-from)]})
		})
	}
	for q, sub := range mySubs {
		pos := replyIn[subDelegate[q]][subStreamIdx[q]].pos
		emit(sub.group, pieces[sub.group], sub.off, sub.size, pos)
	}
	for i, sl := range slots {
		if sl.local {
			emit(sl.group, pieces[sl.group], sl.off, sl.size, slotPos[i])
		}
	}
	return out
}
