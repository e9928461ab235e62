package native

import (
	"strings"
	"testing"
	"time"

	"pmsort/internal/comm"
)

// TestRing passes a token around the full ring: point-to-point matching
// and group-relative addressing.
func TestRing(t *testing.T) {
	const p = 5
	m := New(p)
	m.Run(func(c comm.Communicator) {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		c.Send(next, 1, c.Rank(), 1)
		got, _ := c.Recv(prev, 1)
		if got.(int) != prev {
			t.Errorf("rank %d: got %v from ring, want %d", c.Rank(), got, prev)
		}
	})
	for i := 0; i < p; i++ {
		if n := m.mbox[i].Pending(); n != 0 {
			t.Errorf("PE %d: %d undelivered messages after Run", i, n)
		}
	}
}

// TestTagMatching receives messages in the opposite order of their
// arrival: matching is by (source, tag), not arrival order, and FIFO
// within one (source, tag) pair.
func TestTagMatching(t *testing.T) {
	m := New(2)
	m.Run(func(c comm.Communicator) {
		other := 1 - c.Rank()
		c.Send(other, 10, "a1", 1)
		c.Send(other, 10, "a2", 1)
		c.Send(other, 20, "b", 1)
		if got, _ := c.Recv(other, 20); got.(string) != "b" {
			t.Errorf("rank %d: tag 20 got %v", c.Rank(), got)
		}
		if got, _ := c.Recv(other, 10); got.(string) != "a1" {
			t.Errorf("rank %d: tag 10 first got %v", c.Rank(), got)
		}
		if got, _ := c.Recv(other, 10); got.(string) != "a2" {
			t.Errorf("rank %d: tag 10 second got %v", c.Rank(), got)
		}
	})
}

// TestSplitGeometry mirrors the simulator's split semantics: the two
// backends must agree on group shapes or algorithms diverge.
func TestSplitGeometry(t *testing.T) {
	m := New(10)
	m.Run(func(c comm.Communicator) {
		sub, g := c.SplitEqual(3)
		wantSizes := []int{4, 3, 3}
		if sub.Size() != wantSizes[g] {
			t.Errorf("rank %d: group %d size %d, want %d", c.Rank(), g, sub.Size(), wantSizes[g])
		}
		if sub.GlobalRank(sub.Rank()) != c.Rank() {
			t.Errorf("rank %d: wrong self mapping", c.Rank())
		}
		col, cg := c.SplitModulo(3)
		if cg != c.Rank()%3 {
			t.Errorf("rank %d: modulo group %d", c.Rank(), cg)
		}
		for i := 1; i < col.Size(); i++ {
			if col.GlobalRank(i)-col.GlobalRank(i-1) != 3 {
				t.Errorf("rank %d: column stride broken", c.Rank())
			}
		}
		if c.Rank() >= 3 {
			ss := c.Subset(3, 10)
			if ss.Size() != 7 || ss.GlobalRank(0) != 3 {
				t.Errorf("Subset wrong: size=%d first=%d", ss.Size(), ss.GlobalRank(0))
			}
		}
	})
}

// TestCostHook: annotations are free, the clock is the wall clock, and
// BarrierSync passes entry through.
func TestCostHook(t *testing.T) {
	m := New(1)
	m.Run(func(c comm.Communicator) {
		h := c.Cost()
		t0 := h.Now()
		h.Ops(1 << 40) // must not take 1<<40 ns
		h.SortOps(1 << 40)
		h.Scan(1 << 40)
		h.PartitionOps(1 << 40)
		if h.BarrierSync(12345) != 12345 {
			t.Error("BarrierSync must return entry unchanged")
		}
		if h.Now() < t0 {
			t.Error("wall clock went backwards")
		}
	})
}

// TestRunPanicPropagates: a panicking PE surfaces on the caller.
func TestRunPanicPropagates(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate from Run")
		}
	}()
	m.Run(func(c comm.Communicator) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

// TestRunPanicUnwindsWaitingPeer: a PE that panics while a peer is
// parked in Recv on it must not hang the machine — the peer unwinds and
// Run re-panics with the first panic and its PE.
func TestRunPanicUnwindsWaitingPeer(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		New(2).Run(func(c comm.Communicator) {
			if c.Rank() == 1 {
				panic("boom")
			}
			c.Recv(1, 7)
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
