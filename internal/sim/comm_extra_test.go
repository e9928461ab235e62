package sim

import "testing"

func TestSplitModulo(t *testing.T) {
	m := NewDefault(10)
	m.Run(func(pe *PE) {
		world := World(pe)
		col, g := world.SplitModulo(3)
		if g != pe.Rank()%3 {
			t.Errorf("rank %d: group %d want %d", pe.Rank(), g, pe.Rank()%3)
		}
		wantSize := []int{4, 3, 3}[g] // ranks ≡0: 0,3,6,9; ≡1: 1,4,7; ≡2: 2,5,8
		if col.Size() != wantSize {
			t.Errorf("rank %d: column size %d want %d", pe.Rank(), col.Size(), wantSize)
		}
		if col.GlobalRank(col.Rank()) != pe.Rank() {
			t.Errorf("rank %d: wrong self mapping", pe.Rank())
		}
		for i := 1; i < col.Size(); i++ {
			if col.GlobalRank(i)-col.GlobalRank(i-1) != 3 {
				t.Errorf("rank %d: column stride broken", pe.Rank())
			}
		}
	})
}

func TestSplitModuloCommunication(t *testing.T) {
	m := NewDefault(12)
	m.Run(func(pe *PE) {
		world := World(pe)
		col, _ := world.SplitModulo(4)
		// Ring within the column.
		next := (col.Rank() + 1) % col.Size()
		prev := (col.Rank() + col.Size() - 1) % col.Size()
		col.Send(next, 8, pe.Rank(), 1)
		got, _ := col.Recv(prev, 8)
		if got.(int) != col.GlobalRank(prev) {
			t.Errorf("rank %d: got %v from column ring, want %d", pe.Rank(), got, col.GlobalRank(prev))
		}
	})
}

// TestBarrierSyncSpan: the modeled barrier costs 2·⌈log₂ size⌉·α over
// the widest link inside the group it is called on — the link between
// the group's first and last member.
func TestBarrierSyncSpan(t *testing.T) {
	topo := Topology{CoresPerNode: 4, NodesPerIsland: 2}
	cost := DefaultCost()
	m := New(16, topo, cost)
	m.Run(func(pe *PE) {
		world := World(pe)
		if got, want := world.Cost().BarrierSync(0), 2*4*cost.Alpha[LinkCross]; got != want {
			t.Errorf("world (2 islands) barrier exit = %d, want %d", got, want)
		}
		if pe.Rank() < 4 {
			node := world.Subset(0, 4)
			if got, want := node.Cost().BarrierSync(0), 2*2*cost.Alpha[LinkNode]; got != want {
				t.Errorf("node barrier exit = %d, want %d", got, want)
			}
		}
		if pe.Rank() < 8 {
			island := world.Subset(0, 8)
			if got, want := island.Cost().BarrierSync(0), 2*3*cost.Alpha[LinkIsland]; got != want {
				t.Errorf("island barrier exit = %d, want %d", got, want)
			}
		}
	})
}

func TestNestedSplits(t *testing.T) {
	m := NewDefault(16)
	m.Run(func(pe *PE) {
		world := World(pe)
		half, hg := world.SplitEqual(2)
		quarter, qg := half.SplitEqual(2)
		if quarter.Size() != 4 {
			t.Errorf("nested split size %d", quarter.Size())
		}
		wantFirst := hg*8 + qg*4
		if quarter.GlobalRank(0) != wantFirst {
			t.Errorf("rank %d: nested group starts at %d want %d", pe.Rank(), quarter.GlobalRank(0), wantFirst)
		}
	})
}

func TestSendInvalidRankPanics(t *testing.T) {
	m := NewDefault(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid destination")
		}
	}()
	m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(5, 1, nil, 1)
		}
	})
}

func TestSplitEqualInvalidPanics(t *testing.T) {
	m := NewDefault(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for groups > size")
		}
	}()
	m.Run(func(pe *PE) {
		World(pe).SplitEqual(9)
	})
}

func TestSendRecvHelper(t *testing.T) {
	m := NewDefault(2)
	m.Run(func(pe *PE) {
		other := 1 - pe.Rank()
		got, w := pe.SendRecv(other, pe.Rank()*11, 3, other, 5)
		if got.(int) != other*11 || w != 3 {
			t.Errorf("SendRecv got %v/%d", got, w)
		}
	})
}

// TestMachineRunReusesClocks: Run without Reset continues the clocks —
// the contract the phase-timing code relies on.
func TestMachineRunReusesClocks(t *testing.T) {
	m := NewDefault(2)
	m.Run(func(pe *PE) { pe.Charge(50) })
	res := m.Run(func(pe *PE) { pe.Charge(7) })
	if res.MaxTime != 57 {
		t.Errorf("clocks did not accumulate across runs: %d", res.MaxTime)
	}
}
