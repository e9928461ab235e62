package comm

import (
	"slices"
	"testing"
)

// members returns the global ranks of a group, in group order.
func members(c Communicator) []int {
	out := make([]int, c.Size())
	for i := range out {
		out[i] = c.GlobalRank(i)
	}
	return out
}

// TestGroupSplits pins the split semantics of the one communicator type
// for every member of a 10-PE world: group shapes, group indices, and
// the member's own position.
func TestGroupSplits(t *testing.T) {
	const p = 10
	for me := 0; me < p; me++ {
		world := NewGroup(&recEndpoint{}, WorldRanks(p), me)

		sub, g := world.SplitEqual(3) // sizes 4,3,3
		wantEq := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
		if !slices.Equal(members(sub), wantEq[g]) || sub.GlobalRank(sub.Rank()) != me {
			t.Errorf("rank %d: SplitEqual(3) gave group %d = %v at %d", me, g, members(sub), sub.Rank())
		}

		col, cg := world.SplitModulo(3)
		wantMod := [][]int{{0, 3, 6, 9}, {1, 4, 7}, {2, 5, 8}}
		if cg != me%3 || !slices.Equal(members(col), wantMod[cg]) || col.GlobalRank(col.Rank()) != me {
			t.Errorf("rank %d: SplitModulo(3) gave group %d = %v at %d", me, cg, members(col), col.Rank())
		}

		st, sg := world.SplitStarts([]int{0, 2, 2, 3, 10}) // group 1 is empty
		wantSt := [][]int{{0, 1}, nil, {2}, {3, 4, 5, 6, 7, 8, 9}}
		if !slices.Equal(members(st), wantSt[sg]) || st.GlobalRank(st.Rank()) != me {
			t.Errorf("rank %d: SplitStarts gave group %d = %v at %d", me, sg, members(st), st.Rank())
		}

		// Splits nest: a column of my half.
		half, hg := world.SplitEqual(2)
		nested, ng := half.SplitModulo(2)
		for i, r := range members(nested) {
			if want := hg*5 + ng + 2*i; r != want {
				t.Errorf("rank %d: nested member %d is %d, want %d", me, i, r, want)
			}
		}
		if nested.GlobalRank(nested.Rank()) != me {
			t.Errorf("rank %d: wrong self mapping after nested splits", me)
		}
	}
}

// TestGroupAddressing: Send and Recv translate group-relative ranks to
// the endpoint's global ranks.
func TestGroupAddressing(t *testing.T) {
	ep := &recEndpoint{}
	col, _ := NewGroup(ep, WorldRanks(12), 5).SplitModulo(4) // members 1, 5, 9
	col.Send(2, 8, "x", 1)
	col.Recv(0, 8)
	if ep.sends[0] != [2]int{9, 8} || ep.recvs[0] != [2]int{1, 8} {
		t.Fatalf("sent to %v, received from %v; want global ranks 9 and 1", ep.sends[0], ep.recvs[0])
	}
}

// TestGroupRejectsBadArguments: out-of-range ranks and malformed splits
// panic on the calling PE instead of reaching the endpoint.
func TestGroupRejectsBadArguments(t *testing.T) {
	world := NewGroup(&recEndpoint{}, WorldRanks(4), 1)
	for name, fn := range map[string]func(){
		"send to rank -1":       func() { world.Send(-1, 1, nil, 1) },
		"send to rank size":     func() { world.Send(4, 1, nil, 1) },
		"recv from rank size":   func() { world.Recv(4, 1) },
		"SplitEqual(0)":         func() { world.SplitEqual(0) },
		"SplitEqual(size+1)":    func() { world.SplitEqual(5) },
		"SplitModulo(0)":        func() { world.SplitModulo(0) },
		"SplitStarts short":     func() { world.SplitStarts([]int{0, 3}) },
		"SplitStarts decrease":  func() { world.SplitStarts([]int{0, 3, 2, 4}) },
		"Subset without me":     func() { world.Subset(2, 4) },
		"Subset beyond members": func() { world.Subset(0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
