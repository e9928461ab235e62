package coll

import "pmsort/internal/comm"

const (
	tagRabScatter = 0x6c1001
	tagRabGather  = 0x6c1002
)

// seg is one offset-stamped segment of the recursive-doubling allgather
// of AllreduceSumI64 (package-scoped so the wire codec can name it).
type seg struct {
	lo   int
	data []int64
}

// AllreduceSumI64 computes the element-wise vector sum on every member.
// For power-of-two groups and vectors of at least one element per member
// it uses Rabenseifner's algorithm (reduce-scatter by recursive halving,
// then allgather by recursive doubling), moving only ≈2·ℓ words per PE
// instead of the ≈ℓ·log p of the tree algorithm — the full-bandwidth
// reduction the paper's [30] citation calls for, relevant for the long
// bucket-size vectors of overpartitioned AMS-sort. Other shapes fall
// back to the binomial-tree Allreduce. The result is freshly allocated.
func AllreduceSumI64(c comm.Communicator, vec []int64) []int64 {
	p := c.Size()
	addVec := func(a, b []int64) []int64 {
		out := make([]int64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	if p == 1 {
		return append([]int64(nil), vec...)
	}
	if p&(p-1) != 0 || len(vec) < p {
		return Allreduce(c, vec, int64(len(vec)), addVec)
	}
	cost := c.Cost()
	rank := c.Rank()
	cur := append([]int64(nil), vec...)
	lo, hi := 0, len(cur)

	// Reduce-scatter by recursive halving: each round sends the half of
	// the active segment the partner is responsible for and accumulates
	// the received half.
	for d := p >> 1; d >= 1; d >>= 1 {
		partner := rank ^ d
		mid := lo + (hi-lo)/2
		var sendLo, sendHi int
		if rank&d == 0 {
			sendLo, sendHi = mid, hi // partner owns the upper half
		} else {
			sendLo, sendHi = lo, mid
		}
		// Send a copy: cur keeps being accumulated into.
		out := append([]int64(nil), cur[sendLo:sendHi]...)
		c.Send(partner, tagRabScatter, out, int64(len(out)))
		pl, _ := c.Recv(partner, tagRabScatter)
		in := pl.([]int64)
		if rank&d == 0 {
			hi = mid
		} else {
			lo = mid
		}
		for i, v := range in {
			cur[lo+i] += v
		}
		cost.Scan(int64(len(in)))
	}

	// Allgather by recursive doubling: exchange ever-growing segments.
	for d := 1; d < p; d <<= 1 {
		partner := rank ^ d
		out := seg{lo: lo, data: append([]int64(nil), cur[lo:hi]...)}
		c.Send(partner, tagRabGather, out, int64(hi-lo)+1)
		pl, _ := c.Recv(partner, tagRabGather)
		in := pl.(seg)
		copy(cur[in.lo:], in.data)
		cost.Scan(int64(len(in.data)))
		if in.lo < lo {
			lo = in.lo
		}
		if end := in.lo + len(in.data); end > hi {
			hi = end
		}
	}
	return cur
}
