package coll

import (
	"math/rand"
	"sort"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/sim"
)

var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 33}

func addI64(a, b int64) int64 { return a + b }

func runAll(t *testing.T, sizes []int, fn func(t *testing.T, c comm.Communicator)) {
	t.Helper()
	for _, p := range sizes {
		m := sim.NewDefault(p)
		m.Run(func(pe *sim.PE) {
			fn(t, sim.World(pe))
		})
	}
}

func TestBcast(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		for root := 0; root < c.Size(); root += 1 + c.Size()/3 {
			got := Bcast(c, root, 1000+root, 1)
			if got != 1000+root {
				t.Errorf("p=%d root=%d rank=%d: Bcast got %d", c.Size(), root, c.Rank(), got)
			}
		}
	})
}

func TestReduce(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		p := c.Size()
		for root := 0; root < p; root += 1 + p/3 {
			val, ok := Reduce(c, root, int64(c.Rank()+1), 1, addI64)
			if ok != (c.Rank() == root) {
				t.Errorf("p=%d: ok=%v at rank %d root %d", p, ok, c.Rank(), root)
			}
			want := int64(p) * int64(p+1) / 2
			if ok && val != want {
				t.Errorf("p=%d root=%d: Reduce got %d want %d", p, root, val, want)
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		p := c.Size()
		got := Allreduce(c, int64(c.Rank()+1), 1, addI64)
		if want := int64(p) * int64(p+1) / 2; got != want {
			t.Errorf("p=%d rank=%d: Allreduce got %d want %d", p, c.Rank(), got, want)
		}
	})
}

func TestAllreduceVector(t *testing.T) {
	addVec := func(a, b []int64) []int64 {
		out := make([]int64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		p := c.Size()
		vec := []int64{int64(c.Rank()), 1, int64(2 * c.Rank())}
		got := Allreduce(c, vec, 3, addVec)
		wantSum := int64(p*(p-1)) / 2
		if got[0] != wantSum || got[1] != int64(p) || got[2] != 2*wantSum {
			t.Errorf("p=%d: vector allreduce got %v", p, got)
		}
	})
}

func TestExScan(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		r := int64(c.Rank())
		prefix, ok := ExScan(c, r+1, 1, addI64)
		if c.Rank() == 0 {
			if ok {
				t.Errorf("rank 0 has a prefix: %d", prefix)
			}
			return
		}
		want := r * (r + 1) / 2 // sum of 1..r
		if !ok || prefix != want {
			t.Errorf("p=%d rank=%d: ExScan got %d,%v want %d", c.Size(), c.Rank(), prefix, ok, want)
		}
	})
}

func TestScanTotal(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		p := int64(c.Size())
		prefix, total, ok := ScanTotal(c, int64(c.Rank()+1), 1, addI64)
		if total != p*(p+1)/2 {
			t.Errorf("p=%d rank=%d: total=%d", p, c.Rank(), total)
		}
		r := int64(c.Rank())
		if c.Rank() > 0 && (!ok || prefix != r*(r+1)/2) {
			t.Errorf("p=%d rank=%d: prefix=%d ok=%v", p, c.Rank(), prefix, ok)
		}
	})
}

func TestGathervAllgatherv(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		local := make([]int, c.Rank()%3+1)
		for i := range local {
			local[i] = 100*c.Rank() + i
		}
		check := func(all [][]int) {
			if len(all) != c.Size() {
				t.Fatalf("got %d chunks want %d", len(all), c.Size())
			}
			for r, chunk := range all {
				if len(chunk) != r%3+1 {
					t.Fatalf("chunk %d has len %d", r, len(chunk))
				}
				for i, v := range chunk {
					if v != 100*r+i {
						t.Fatalf("chunk %d[%d] = %d", r, i, v)
					}
				}
			}
		}
		if all := Gatherv(c, 0, local); c.Rank() == 0 {
			check(all)
		} else if all != nil {
			t.Errorf("non-root got non-nil gather result")
		}
		check(Allgatherv(c, local))
	})
}

func TestAllgatherMerge(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 7))
		local := make([]int, 5+c.Rank()%4)
		for i := range local {
			local[i] = rng.Intn(100)
		}
		sort.Ints(local)
		got := AllgatherMerge(c, local, func(a, b int) bool { return a < b })
		// Reference: gather everything and sort.
		wantLen := 0
		for r := 0; r < c.Size(); r++ {
			wantLen += 5 + r%4
		}
		if len(got) != wantLen {
			t.Fatalf("p=%d rank=%d: merged len %d want %d", c.Size(), c.Rank(), len(got), wantLen)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("p=%d rank=%d: gossip result not sorted", c.Size(), c.Rank())
		}
	})
}

func TestAlltoallI64(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		p := c.Size()
		v := make([]int64, p)
		for i := range v {
			// Unique value per (src,dst) pair.
			v[i] = int64(c.Rank()*1000 + i)
		}
		got := AlltoallI64(c, v)
		for src := 0; src < p; src++ {
			if got[src] != int64(src*1000+c.Rank()) {
				t.Fatalf("p=%d rank=%d: from %d got %d want %d", p, c.Rank(), src, got[src], src*1000+c.Rank())
			}
		}
	})
}

func alltoallvCheck(t *testing.T, c comm.Communicator, impl func(comm.Communicator, [][]int) [][]int) {
	t.Helper()
	p := c.Size()
	out := make([][]int, p)
	rng := rand.New(rand.NewSource(int64(c.Rank()*977 + p)))
	for i := range out {
		n := rng.Intn(4)
		if (c.Rank()+i)%3 == 0 {
			n = 0 // force plenty of empty messages
		}
		out[i] = make([]int, n)
		for j := range out[i] {
			out[i][j] = c.Rank()*100000 + i*100 + j
		}
	}
	in := impl(c, out)
	for src := 0; src < p; src++ {
		// Regenerate what src must have sent to me.
		srcRng := rand.New(rand.NewSource(int64(src*977 + p)))
		var want []int
		for i := 0; i < p; i++ {
			n := srcRng.Intn(4)
			if (src+i)%3 == 0 {
				n = 0
			}
			if i == c.Rank() {
				want = make([]int, n)
				for j := range want {
					want[j] = src*100000 + i*100 + j
				}
			}
		}
		if len(in[src]) != len(want) {
			t.Fatalf("p=%d rank=%d src=%d: got %d elems want %d", p, c.Rank(), src, len(in[src]), len(want))
		}
		for j := range want {
			if in[src][j] != want[j] {
				t.Fatalf("p=%d rank=%d src=%d elem %d: got %d want %d", p, c.Rank(), src, j, in[src][j], want[j])
			}
		}
	}
}

func TestAlltoallvDirect(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		alltoallvCheck(t, c, AlltoallvDirect[int])
	})
}

func TestAlltoallv1Factor(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		alltoallvCheck(t, c, Alltoallv1Factor[int])
	})
}

// TestOneFactorSkipsEmpties verifies the headline property of the
// 1-factor all-to-allv: PEs with nothing to exchange do not pay message
// startups for data messages (only the logarithmic Bruck counts rounds),
// while the direct algorithm always pays p-1 startups.
func TestOneFactorSkipsEmpties(t *testing.T) {
	const p = 16
	run := func(impl func(comm.Communicator, [][]int) [][]int) (maxMsgs int64) {
		m := sim.NewDefault(p)
		m.Run(func(pe *sim.PE) {
			c := sim.World(pe)
			out := make([][]int, p)
			// Only PE 0 sends anything, and only to PE 1.
			if pe.Rank() == 0 {
				out[1] = []int{42}
			}
			pe.ResetCounters()
			impl(c, out)
		})
		for i := 0; i < p; i++ {
			if n := m.PE(i).MsgsSent; n > maxMsgs {
				maxMsgs = n
			}
		}
		return maxMsgs
	}
	direct := run(AlltoallvDirect[int])
	onefac := run(Alltoallv1Factor[int])
	if direct != p-1 {
		t.Errorf("direct all-to-allv sent %d messages, want %d", direct, p-1)
	}
	// 1-factor: only the Bruck counts rounds (log2 16 = 4) plus at most
	// one data message.
	if onefac > 5 {
		t.Errorf("1-factor all-to-allv sent %d messages, want ≤ 5", onefac)
	}
}

func TestBarrier(t *testing.T) {
	runAll(t, testSizes, func(t *testing.T, c comm.Communicator) {
		// Stagger the clocks, then barrier; everyone must leave at a time
		// ≥ the max entry time.
		pe := c.Endpoint().(*sim.PE)
		entry := int64(1000 * (c.Rank() + 1))
		pe.AdvanceTo(entry)
		Barrier(c)
		if pe.Now() < int64(1000*c.Size()) {
			t.Errorf("p=%d rank=%d: left barrier at %d before max entry %d",
				c.Size(), c.Rank(), pe.Now(), 1000*c.Size())
		}
	})
}

func TestTimedBarrierClockAgreement(t *testing.T) {
	for _, p := range testSizes {
		m := sim.NewDefault(p)
		exits := make([]int64, p)
		m.Run(func(pe *sim.PE) {
			c := sim.World(pe)
			pe.AdvanceTo(int64(500 * (pe.Rank() + 3)))
			exits[pe.Rank()] = TimedBarrier(c)
		})
		for i := 1; i < p; i++ {
			if exits[i] != exits[0] {
				t.Fatalf("p=%d: PE %d exited at %d, PE 0 at %d", p, i, exits[i], exits[0])
			}
		}
		if exits[0] < int64(500*(p+2)) {
			t.Fatalf("p=%d: exit %d before max entry %d", p, exits[0], 500*(p+2))
		}
		res := m.Run(func(pe *sim.PE) {})
		for i := 1; i < p; i++ {
			if res.Times[i] != res.Times[0] {
				t.Fatalf("p=%d: clocks disagree after TimedBarrier", p)
			}
		}
	}
}

// TestCollectivesInSubgroups runs collectives concurrently in disjoint
// subgroups to check isolation.
func TestCollectivesInSubgroups(t *testing.T) {
	m := sim.NewDefault(12)
	m.Run(func(pe *sim.PE) {
		world := sim.World(pe)
		sub, g := world.SplitEqual(3)
		sum := Allreduce(sub, int64(1), 1, addI64)
		if sum != int64(sub.Size()) {
			t.Errorf("group %d rank %d: allreduce got %d want %d", g, sub.Rank(), sum, sub.Size())
		}
		got := Bcast(sub, 0, g*10, 1)
		if got != g*10 {
			t.Errorf("group %d: bcast leaked across groups: %d", g, got)
		}
	})
}

// TestBcastLogDepth checks the binomial broadcast takes O(log p) rounds,
// not O(p): the virtual finish time for p=64 single-word messages must be
// well below 64 α.
func TestBcastLogDepth(t *testing.T) {
	p := 64
	m := sim.New(p, sim.FlatTopology(), sim.DefaultCost())
	res := m.Run(func(pe *sim.PE) {
		Bcast(sim.World(pe), 0, 7, 1)
	})
	alpha := sim.DefaultCost().Alpha[sim.LinkIsland]
	// Binomial tree: ≤ 2·log2(p) α on the critical path (sends serialize
	// at the root), with slack for the β term.
	if res.MaxTime > 2*6*alpha+1000 {
		t.Errorf("Bcast finished at %d ns, expected ≈ O(log p · α) = %d", res.MaxTime, 6*alpha)
	}
}
