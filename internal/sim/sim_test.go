package sim

import (
	"strings"
	"testing"
	"time"
)

func TestTopologyLinkClasses(t *testing.T) {
	topo := Topology{CoresPerNode: 4, NodesPerIsland: 2}
	cases := []struct {
		a, b int
		want LinkClass
	}{
		{0, 0, LinkSelf},
		{0, 3, LinkNode},   // same node 0
		{0, 4, LinkIsland}, // node 0 vs node 1, island 0
		{3, 7, LinkIsland},
		{0, 8, LinkCross}, // island 0 vs island 1
		{7, 8, LinkCross},
		{15, 8, LinkCross}, // island 1 vs island 1? node 3 vs node 2 -> island 1 both
	}
	// fix the last case: ranks 8..15 are nodes 2,3 -> island 1.
	cases[len(cases)-1].want = LinkIsland
	for _, tc := range cases {
		if got := topo.Link(tc.a, tc.b); got != tc.want {
			t.Errorf("Link(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := topo.Link(tc.b, tc.a); got != tc.want {
			t.Errorf("Link(%d,%d) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestTopologyNodeIsland(t *testing.T) {
	topo := DefaultTopology()
	if topo.Node(0) != 0 || topo.Node(15) != 0 || topo.Node(16) != 1 {
		t.Fatalf("Node mapping wrong: %d %d %d", topo.Node(0), topo.Node(15), topo.Node(16))
	}
	if topo.PEsPerIsland() != 512 {
		t.Fatalf("PEsPerIsland = %d, want 512", topo.PEsPerIsland())
	}
	if topo.Island(511) != 0 || topo.Island(512) != 1 {
		t.Fatalf("Island mapping wrong: %d %d", topo.Island(511), topo.Island(512))
	}
}

func TestLinkClassString(t *testing.T) {
	want := map[LinkClass]string{LinkSelf: "self", LinkNode: "node", LinkIsland: "island", LinkCross: "cross"}
	for lc, s := range want {
		if lc.String() != s {
			t.Errorf("String(%d) = %q, want %q", lc, lc.String(), s)
		}
	}
}

// TestSendRecvCost verifies the exact α+ℓβ accounting on both endpoints.
func TestSendRecvCost(t *testing.T) {
	cost := DefaultCost()
	m := New(2, FlatTopology(), cost)
	const words = 1000
	res := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 7, "hi", words)
		} else {
			payload, w := pe.Recv(0, 7)
			if payload.(string) != "hi" || w != words {
				t.Errorf("bad payload %v words %d", payload, w)
			}
		}
	})
	// Flat topology: one island, one PE per node -> island links.
	want := cost.MsgNS(LinkIsland, words)
	if res.Times[0] != want {
		t.Errorf("sender clock = %d, want %d", res.Times[0], want)
	}
	// Receiver starts at max(0, sendStart=0) and pays the same cost.
	if res.Times[1] != want {
		t.Errorf("receiver clock = %d, want %d", res.Times[1], want)
	}
}

// TestReceiverWaitsForSender checks that a receive cannot complete before
// the send began.
func TestReceiverWaitsForSender(t *testing.T) {
	m := NewDefault(2)
	const delay = 1_000_000
	res := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Charge(delay) // sender is busy first
			pe.Send(1, 1, nil, 10)
		} else {
			pe.Recv(0, 1)
		}
	})
	lc := DefaultTopology().Link(0, 1)
	want := delay + DefaultCost().MsgNS(lc, 10)
	if res.Times[1] != want {
		t.Errorf("receiver clock = %d, want %d", res.Times[1], want)
	}
}

// TestFIFOPerPair checks messages between one pair with one tag arrive in
// send order.
func TestFIFOPerPair(t *testing.T) {
	m := NewDefault(2)
	const n = 100
	m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			for i := 0; i < n; i++ {
				pe.Send(1, 3, i, 1)
			}
		} else {
			for i := 0; i < n; i++ {
				got, _ := pe.Recv(0, 3)
				if got.(int) != i {
					t.Errorf("message %d arrived out of order: got %d", i, got)
					return
				}
			}
		}
	})
}

// TestTagsIndependent checks that messages with different tags do not
// block each other even when received out of send order.
func TestTagsIndependent(t *testing.T) {
	m := NewDefault(2)
	m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 1, "first", 1)
			pe.Send(1, 2, "second", 1)
		} else {
			p2, _ := pe.Recv(0, 2)
			p1, _ := pe.Recv(0, 1)
			if p1.(string) != "first" || p2.(string) != "second" {
				t.Errorf("tag matching broken: %v %v", p1, p2)
			}
		}
	})
}

// TestDeterministicClocks runs a communication-heavy program twice and
// demands identical virtual clocks (scheduling independence).
func TestDeterministicClocks(t *testing.T) {
	prog := func(pe *PE) {
		p := pe.P()
		// Ring shifts with varying sizes plus local work.
		for round := 0; round < 5; round++ {
			next := (pe.Rank() + 1) % p
			prev := (pe.Rank() + p - 1) % p
			pe.Send(next, 9, pe.Rank(), int64(1+round*pe.Rank()))
			pe.Recv(prev, 9)
			pe.ChargeOps(int64(pe.Rank() * 100))
		}
	}
	run := func() []int64 {
		m := NewDefault(33)
		return m.Run(prog).Times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clock of PE %d differs across runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMachineReset(t *testing.T) {
	m := NewDefault(4)
	m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 1, nil, 5)
		}
		if pe.Rank() == 1 {
			pe.Recv(0, 1)
		}
		pe.Charge(100)
	})
	m.Reset()
	res := m.Run(func(pe *PE) {})
	if res.MaxTime != 0 {
		t.Errorf("clocks not reset: max=%d", res.MaxTime)
	}
}

func TestResetDetectsLeakedMessages(t *testing.T) {
	m := NewDefault(2)
	m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 1, nil, 1) // never received
		}
	})
	defer func() {
		if recover() == nil {
			t.Errorf("Reset did not panic on leaked message")
		}
	}()
	m.Reset()
}

// TestRunPanicUnwindsWaitingPeer: a PE that panics while a peer is
// parked in Recv on it must not hang the machine — the peer unwinds and
// Run re-panics with the first panic and its PE.
func TestRunPanicUnwindsWaitingPeer(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		NewDefault(2).Run(func(pe *PE) {
			if pe.Rank() == 1 {
				panic("boom")
			}
			World(pe).Recv(1, 7)
		})
	}()
	select {
	case r := <-done:
		if s, _ := r.(string); !strings.Contains(s, "PE 1: boom") {
			t.Fatalf("Run panicked with %v, want the first panic and its PE", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run hangs: rank 0 still waits for a message from the panicked rank 1")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	m := NewDefault(3)
	defer func() {
		if recover() == nil {
			t.Errorf("Run did not propagate PE panic")
		}
	}()
	m.Run(func(pe *PE) {
		if pe.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestSplitEqual(t *testing.T) {
	m := NewDefault(10)
	m.Run(func(pe *PE) {
		world := World(pe)
		sub, g := world.SplitEqual(3)
		// Sizes must be 4,3,3; group of rank r is deterministic.
		wantSizes := []int{4, 3, 3}
		if sub.Size() != wantSizes[g] {
			t.Errorf("rank %d: group %d size %d, want %d", pe.Rank(), g, sub.Size(), wantSizes[g])
		}
		// Global ranks must be contiguous and contain this PE.
		if sub.GlobalRank(sub.Rank()) != pe.Rank() {
			t.Errorf("rank %d: wrong self mapping", pe.Rank())
		}
		for i := 1; i < sub.Size(); i++ {
			if sub.GlobalRank(i) != sub.GlobalRank(i-1)+1 {
				t.Errorf("rank %d: group not contiguous", pe.Rank())
			}
		}
	})
}

func TestSubgroupCommunication(t *testing.T) {
	m := NewDefault(8)
	m.Run(func(pe *PE) {
		world := World(pe)
		sub, g := world.SplitEqual(2)
		// Ring within the subgroup; group-relative addressing.
		next := (sub.Rank() + 1) % sub.Size()
		prev := (sub.Rank() + sub.Size() - 1) % sub.Size()
		sub.Send(next, 4, g*100+sub.Rank(), 1)
		got, _ := sub.Recv(prev, 4)
		if got.(int) != g*100+prev {
			t.Errorf("rank %d: got %v from subgroup ring", pe.Rank(), got)
		}
	})
}

func TestSubsetAndSplitStarts(t *testing.T) {
	m := NewDefault(9)
	m.Run(func(pe *PE) {
		world := World(pe)
		sub, g := world.SplitStarts([]int{0, 2, 3, 9})
		sizes := []int{2, 1, 6}
		if sub.Size() != sizes[g] {
			t.Errorf("rank %d: group %d size %d want %d", pe.Rank(), g, sub.Size(), sizes[g])
		}
		if pe.Rank() >= 3 {
			ss := world.Subset(3, 9)
			if ss.Size() != 6 || ss.GlobalRank(0) != 3 {
				t.Errorf("Subset wrong: size=%d first=%d", ss.Size(), ss.GlobalRank(0))
			}
		}
	})
}

func TestChargeHelpers(t *testing.T) {
	m := NewDefault(1)
	res := m.Run(func(pe *PE) {
		pe.ChargeSortOps(8) // 8 * log2(8)=3 -> 24 ops * 1.5ns = 36
	})
	if res.MaxTime != 36 {
		t.Errorf("ChargeSortOps(8) charged %d ns, want 36", res.MaxTime)
	}
	if log2Ceil(1) != 0 || log2Ceil(2) != 1 || log2Ceil(3) != 2 || log2Ceil(1024) != 10 || log2Ceil(1025) != 11 {
		t.Errorf("log2Ceil wrong: %d %d %d %d %d", log2Ceil(1), log2Ceil(2), log2Ceil(3), log2Ceil(1024), log2Ceil(1025))
	}
}

func TestTrafficCounters(t *testing.T) {
	m := NewDefault(2)
	m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 1, nil, 42)
			pe.Send(1, 1, nil, 8)
		} else {
			pe.Recv(0, 1)
			pe.Recv(0, 1)
		}
	})
	if s := m.PE(0); s.MsgsSent != 2 || s.WordsSent != 50 {
		t.Errorf("sender counters: msgs=%d words=%d", s.MsgsSent, s.WordsSent)
	}
	if r := m.PE(1); r.MsgsRecv != 2 || r.WordsRecv != 50 {
		t.Errorf("receiver counters: msgs=%d words=%d", r.MsgsRecv, r.WordsRecv)
	}
}
