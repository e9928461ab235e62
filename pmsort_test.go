package pmsort

import (
	"math/rand"
	"sort"
	"testing"
)

func u64Less(a, b uint64) bool { return a < b }

// TestPublicAPIEndToEnd drives the library exactly like the README
// quickstart and verifies the output contract.
func TestPublicAPIEndToEnd(t *testing.T) {
	const p, perPE = 32, 500
	cl := New(p)
	if cl.P() != p {
		t.Fatalf("P() = %d", cl.P())
	}
	outs := make([][]uint64, p)
	cl.Run(func(pe *PE) {
		rng := rand.New(rand.NewSource(int64(pe.Rank())))
		data := make([]uint64, perPE)
		for i := range data {
			data[i] = rng.Uint64()
		}
		sorted, st := AMSSort(World(pe), data, u64Less, Config{Levels: 2, Seed: 3})
		if st.TotalNS <= 0 {
			t.Errorf("no simulated time elapsed")
		}
		outs[pe.Rank()] = sorted
	})
	var prev uint64
	total := 0
	for rank, out := range outs {
		for i, v := range out {
			if v < prev {
				t.Fatalf("order violation at PE %d index %d", rank, i)
			}
			prev = v
		}
		total += len(out)
	}
	if total != p*perPE {
		t.Fatalf("lost elements: %d of %d", total, p*perPE)
	}
}

func TestPublicSortersAgree(t *testing.T) {
	const p, perPE = 16, 200
	type sorterCase struct {
		name string
		run  func(c Communicator, data []uint64) []uint64
	}
	cases := []sorterCase{
		{"AMS", func(c Communicator, d []uint64) []uint64 {
			out, _ := AMSSort(c, d, u64Less, Config{Levels: 2, Seed: 4})
			return out
		}},
		{"RLM", func(c Communicator, d []uint64) []uint64 {
			out, _ := RLMSort(c, d, u64Less, Config{Levels: 2, Seed: 4})
			return out
		}},
		{"GV", func(c Communicator, d []uint64) []uint64 { out, _ := GVSampleSort(c, d, u64Less, 4); return out }},
		{"MP", func(c Communicator, d []uint64) []uint64 { out, _ := MPSort(c, d, u64Less, 4); return out }},
		{"Bitonic", func(c Communicator, d []uint64) []uint64 { out, _ := BitonicSort(c, d, u64Less, 4); return out }},
	}
	for _, tc := range cases {
		cl := New(p)
		var all []uint64
		outs := make([][]uint64, p)
		locals := make([][]uint64, p)
		rng := rand.New(rand.NewSource(9))
		for i := range locals {
			loc := make([]uint64, perPE)
			for j := range loc {
				loc[j] = rng.Uint64() % 10000
			}
			locals[i] = loc
			all = append(all, loc...)
		}
		cl.Run(func(pe *PE) {
			outs[pe.Rank()] = tc.run(World(pe), append([]uint64(nil), locals[pe.Rank()]...))
		})
		var got []uint64
		for _, o := range outs {
			got = append(got, o...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		if len(got) != len(all) {
			t.Fatalf("%s: length %d want %d", tc.name, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("%s: not globally sorted at %d", tc.name, i)
			}
		}
	}
}

func TestCustomTopologyAndCost(t *testing.T) {
	topo := Topology{CoresPerNode: 4, NodesPerIsland: 2}
	cost := DefaultCost()
	cost.Alpha[3] *= 10 // make inter-island traffic painful
	cl := NewCustom(16, topo, cost)
	var slow int64
	cl.Run(func(pe *PE) {
		_, st := AMSSort(World(pe), []uint64{uint64(pe.Rank())}, u64Less, Config{Levels: 1, Seed: 5})
		if pe.Rank() == 0 {
			slow = st.TotalNS
		}
	})
	cl2 := NewCustom(16, FlatTopology(), DefaultCost())
	var fast int64
	cl2.Run(func(pe *PE) {
		_, st := AMSSort(World(pe), []uint64{uint64(pe.Rank())}, u64Less, Config{Levels: 1, Seed: 5})
		if pe.Rank() == 0 {
			fast = st.TotalNS
		}
	})
	if slow <= fast {
		t.Errorf("10x inter-island alpha did not slow the sort: %d vs %d", slow, fast)
	}
}

func TestClusterReset(t *testing.T) {
	cl := New(4)
	cl.Run(func(pe *PE) { pe.Charge(100) })
	cl.Reset()
	res := cl.Run(func(pe *PE) {})
	if res.MaxTime != 0 {
		t.Errorf("Reset did not zero the clocks")
	}
	if cl.PEInfo(0).MsgsSent != 0 {
		t.Errorf("Reset did not zero the counters")
	}
}

func TestPublicBuildingBlocks(t *testing.T) {
	const p = 6
	cl := New(p)
	cl.Run(func(pe *PE) {
		c := World(pe)
		// Multiselect: every PE holds [0..9] scaled; ask for the median.
		local := make([]uint64, 10)
		for i := range local {
			local[i] = uint64(pe.Rank()*10 + i)
		}
		pos := Multiselect(c, local, []int64{30}, u64Less, 5)
		if len(pos) != 1 {
			t.Errorf("Multiselect returned %d positions", len(pos))
		}
		// The 30 smallest elements are exactly PEs 0..2's slices.
		want := 0
		if pe.Rank() < 3 {
			want = 10
		}
		if pos[0] != want {
			t.Errorf("PE %d: split %d want %d", pe.Rank(), pos[0], want)
		}
		// Deliver: two groups of 3 PEs; every PE sends 1 element to group
		// 0 and 3 elements to group 1 — so group 0 members receive
		// 6/3 = 2 elements each and group 1 members 18/3 = 6.
		pieces := [][]uint64{{1}, {2, 3, 4}}
		chunks := Deliver(c, pieces, DeliveryOptions{Strategy: DeliveryDeterministic, Seed: 5})
		total := 0
		for _, ch := range chunks {
			total += len(ch)
		}
		want = 2
		if pe.Rank() >= p/2 {
			want = 6
		}
		if total != want {
			t.Errorf("PE %d received %d elements, want %d", pe.Rank(), total, want)
		}
	})
}

func TestPlanLevelsExported(t *testing.T) {
	plan := PlanLevels(512, 3)
	if len(plan) != 3 || plan[0] != 8 || plan[1] != 4 || plan[2] != 16 {
		t.Errorf("PlanLevels(512,3) = %v", plan)
	}
}
