package coll

import (
	"reflect"
	"testing"

	"pmsort/internal/prng"
	"pmsort/internal/sim"
)

// TestAlltoallvStreamConformance pins the streamed all-to-all contract
// against the batch variants on the simulated backend: emit fires
// exactly once per source, own data first, and collecting the emitted
// messages by source reproduces the batch result byte for byte — for
// both exchange algorithms, across group sizes, with empty messages
// mixed in.
func TestAlltoallvStreamConformance(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, direct := range []bool{true, false} {
			outs := make([][][]uint64, p)
			rng := prng.New(uint64(p)*77 + 13)
			for r := range outs {
				outs[r] = make([][]uint64, p)
				for to := range outs[r] {
					n := int(rng.Next() % 7)
					if rng.Next()%4 == 0 {
						n = 0 // empty messages: the 1-factor omits them
					}
					msg := make([]uint64, n)
					for i := range msg {
						msg[i] = rng.Next()
					}
					outs[r][to] = msg
				}
			}

			batch := make([][][]uint64, p)
			streamed := make([][][]uint64, p)
			firstSrc := make([]int, p)
			sim.NewDefault(p).Run(func(pe *sim.PE) {
				c := sim.World(pe)
				r := pe.Rank()
				if direct {
					batch[r] = AlltoallvDirect(c, cloneOut(outs[r]))
				} else {
					batch[r] = Alltoallv1Factor(c, cloneOut(outs[r]))
				}
				got := make([][]uint64, p)
				seen := make([]int, p)
				order := 0
				emit := func(src int, msg []uint64) {
					if order == 0 {
						firstSrc[r] = src
					}
					order++
					seen[src]++
					got[src] = msg
				}
				if direct {
					AlltoallvDirectStream(c, cloneOut(outs[r]), emit)
				} else {
					Alltoallv1FactorStream(c, cloneOut(outs[r]), emit)
				}
				for src, n := range seen {
					if n != 1 {
						t.Errorf("p=%d direct=%v rank %d: source %d emitted %d times", p, direct, r, src, n)
					}
				}
				streamed[r] = got
			})

			for r := 0; r < p; r++ {
				if firstSrc[r] != r {
					t.Errorf("p=%d direct=%v rank %d: first emit was source %d, want own data first", p, direct, r, firstSrc[r])
				}
				for src := 0; src < p; src++ {
					b, s := batch[r][src], streamed[r][src]
					// The 1-factor batch leaves omitted messages nil; the
					// stream emits nil for them — compare contents.
					if len(b) == 0 && len(s) == 0 {
						continue
					}
					if !reflect.DeepEqual(b, s) {
						t.Errorf("p=%d direct=%v rank %d src %d: batch %v != streamed %v", p, direct, r, src, b, s)
					}
				}
			}
		}
	}
}

func cloneOut(out [][]uint64) [][]uint64 {
	cp := make([][]uint64, len(out))
	for i, s := range out {
		cp[i] = append([]uint64(nil), s...)
	}
	return cp
}
