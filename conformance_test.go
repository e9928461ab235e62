package pmsort

import (
	"math/rand"
	"testing"

	"pmsort/internal/workload"
)

// conformanceCase is one sorter driven through both backends.
type conformanceCase struct {
	name string
	run  func(c Communicator, data []uint64) []uint64
}

// conformanceCases covers AMS, RLM, and one baseline, as different
// exercise profiles: AMS with tie-breaking on duplicate-heavy data (all
// of sampling, fwis, grouping, delivery), RLM (multisequence selection,
// multiway merging), and GV-sample-sort (centralized splitters, direct
// all-to-all).
func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{"AMS", func(c Communicator, d []uint64) []uint64 {
			out, _ := AMSSort(c, d, u64Less, Config{Levels: 2, Seed: 11})
			return out
		}},
		{"RLM", func(c Communicator, d []uint64) []uint64 {
			out, _ := RLMSort(c, d, u64Less, Config{Levels: 2, Seed: 11})
			return out
		}},
		{"GV", func(c Communicator, d []uint64) []uint64 {
			out, _ := GVSampleSort(c, d, u64Less, 11)
			return out
		}},
		// The AMS and RLM cases above run uint64 elements under the
		// automatically derived hook, which is exact and takes the keyed
		// kernels; this leg pins the plain comparator path (NoPrefix) to
		// the same cross-backend identity, so hook-on and hook-off both
		// hold byte identity across sim, native, and the TCP cluster.
		{"AMS-noprefix", func(c Communicator, d []uint64) []uint64 {
			out, _ := AMSSort(c, d, u64Less, Config{Levels: 2, Seed: 11, NoPrefix: true})
			return out
		}},
	}
}

// conformanceInput builds deterministic per-PE inputs with heavy key
// duplication (so tie-breaking paths run).
func conformanceInput(p, perPE int) [][]uint64 {
	locals := make([][]uint64, p)
	rng := rand.New(rand.NewSource(1234))
	for rank := range locals {
		loc := make([]uint64, perPE)
		for i := range loc {
			loc[i] = rng.Uint64() % 512
		}
		locals[rank] = loc
	}
	return locals
}

// TestBackendConformance asserts that the simulated and the native
// backend produce byte-identical globally sorted output from the same
// seeded input: every collective is deterministic, so the backend must
// not influence a single element's placement.
func TestBackendConformance(t *testing.T) {
	const p, perPE = 8, 300
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			locals := conformanceInput(p, perPE)

			simOuts := make([][]uint64, p)
			cl := New(p)
			cl.Run(func(pe *PE) {
				simOuts[pe.Rank()] = tc.run(World(pe), append([]uint64(nil), locals[pe.Rank()]...))
			})

			natOuts := make([][]uint64, p)
			ncl := NewNative(p)
			if ncl.P() != p {
				t.Fatalf("NewNative(%d).P() = %d", p, ncl.P())
			}
			ncl.Run(func(c Communicator) {
				natOuts[c.Rank()] = tc.run(c, append([]uint64(nil), locals[c.Rank()]...))
			})

			total := 0
			for rank := 0; rank < p; rank++ {
				if len(simOuts[rank]) != len(natOuts[rank]) {
					t.Fatalf("PE %d: sim has %d elements, native %d",
						rank, len(simOuts[rank]), len(natOuts[rank]))
				}
				for i := range simOuts[rank] {
					if simOuts[rank][i] != natOuts[rank][i] {
						t.Fatalf("PE %d element %d: sim %d != native %d",
							rank, i, simOuts[rank][i], natOuts[rank][i])
					}
				}
				total += len(simOuts[rank])
			}
			if total != p*perPE {
				t.Fatalf("lost elements: %d of %d", total, p*perPE)
			}
		})
	}
}

// conformanceKinds is every input distribution the workload package
// generates. The sweep below runs each one through both in-process
// backends: the distributions exercise disjoint robustness paths
// (duplicate-heavy tie-breaking, skew, presortedness, and — OnePE — the
// case where every rank but 0 starts with an empty/nil local slice).
func conformanceKinds() []workload.Kind {
	return []workload.Kind{
		workload.Uniform, workload.Skewed, workload.DupHeavy,
		workload.Sorted, workload.Reverse, workload.AlmostSorted,
		workload.OnePE,
	}
}

// TestBackendConformanceAllKinds sweeps every workload distribution
// through the simulated and native backends and asserts byte-identical
// output for AMS, RLM, and GV-sample-sort — not just the one input
// profile of TestBackendConformance.
func TestBackendConformanceAllKinds(t *testing.T) {
	const p, perPE = 6, 200
	for _, kind := range conformanceKinds() {
		for _, tc := range conformanceCases() {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				locals := make([][]uint64, p)
				for rank := range locals {
					locals[rank] = workload.Local(kind, 99, p, perPE, rank)
				}

				simOuts := make([][]uint64, p)
				cl := New(p)
				cl.Run(func(pe *PE) {
					simOuts[pe.Rank()] = tc.run(World(pe), append([]uint64(nil), locals[pe.Rank()]...))
				})

				natOuts := make([][]uint64, p)
				ncl := NewNative(p)
				ncl.Run(func(c Communicator) {
					natOuts[c.Rank()] = tc.run(c, append([]uint64(nil), locals[c.Rank()]...))
				})

				total, want := 0, 0
				var prev uint64
				for rank := 0; rank < p; rank++ {
					want += len(locals[rank])
					if len(simOuts[rank]) != len(natOuts[rank]) {
						t.Fatalf("PE %d: sim has %d elements, native %d",
							rank, len(simOuts[rank]), len(natOuts[rank]))
					}
					for i := range simOuts[rank] {
						if simOuts[rank][i] != natOuts[rank][i] {
							t.Fatalf("PE %d element %d: sim %d != native %d",
								rank, i, simOuts[rank][i], natOuts[rank][i])
						}
						if simOuts[rank][i] < prev {
							t.Fatalf("PE %d element %d: global order violated", rank, i)
						}
						prev = simOuts[rank][i]
					}
					total += len(simOuts[rank])
				}
				if total != want {
					t.Fatalf("lost elements: %d of %d", total, want)
				}
			})
		}
	}
}

// TestNilLocalInputs pins down the OnePE contract: workload.Local
// returns nil (not just empty) on every rank but 0, and every sorter —
// AMS, RLM, and all baselines — must accept nil local slices on both
// in-process backends without panicking or losing elements.
func TestNilLocalInputs(t *testing.T) {
	const p, perPE = 4, 120 // power of two: bitonic and hcq require it
	for rank := 1; rank < p; rank++ {
		if loc := workload.Local(workload.OnePE, 3, p, perPE, rank); loc != nil {
			t.Fatalf("workload.Local(OnePE) on rank %d = %v, want nil", rank, loc)
		}
	}
	sorters := []struct {
		name string
		run  func(c Communicator, d []uint64) []uint64
	}{
		{"AMS", func(c Communicator, d []uint64) []uint64 {
			out, _ := AMSSort(c, d, u64Less, Config{Levels: 2, Seed: 5})
			return out
		}},
		{"RLM", func(c Communicator, d []uint64) []uint64 {
			out, _ := RLMSort(c, d, u64Less, Config{Levels: 2, Seed: 5})
			return out
		}},
		{"GV", func(c Communicator, d []uint64) []uint64 {
			out, _ := GVSampleSort(c, d, u64Less, 5)
			return out
		}},
		{"MP", func(c Communicator, d []uint64) []uint64 {
			out, _ := MPSort(c, d, u64Less, 5)
			return out
		}},
		{"Bitonic", func(c Communicator, d []uint64) []uint64 {
			out, _ := BitonicSort(c, d, u64Less, 5)
			return out
		}},
		{"Histogram", func(c Communicator, d []uint64) []uint64 {
			out, _ := HistogramSort(c, d, u64Less, 0.05, 5)
			return out
		}},
		{"HCQuicksort", func(c Communicator, d []uint64) []uint64 {
			out, _ := HCQuicksort(c, d, u64Less, 5)
			return out
		}},
	}
	backends := []struct {
		name string
		run  func(fn func(c Communicator))
	}{
		{"sim", func(fn func(c Communicator)) {
			New(p).Run(func(pe *PE) { fn(World(pe)) })
		}},
		{"native", func(fn func(c Communicator)) {
			NewNative(p).Run(fn)
		}},
	}
	for _, s := range sorters {
		for _, b := range backends {
			t.Run(s.name+"/"+b.name, func(t *testing.T) {
				outs := make([][]uint64, p)
				b.run(func(c Communicator) {
					outs[c.Rank()] = s.run(c, workload.Local(workload.OnePE, 3, p, perPE, c.Rank()))
				})
				total := 0
				var prev uint64
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
			})
		}
	}
}

// TestNativeGloballySorted validates the native backend's output
// contract on its own (ordering across PE boundaries and permutation
// preservation), independent of the simulator.
func TestNativeGloballySorted(t *testing.T) {
	const p, perPE = 6, 500
	locals := conformanceInput(p, perPE)
	outs := make([][]uint64, p)
	ncl := NewNative(p)
	elapsed := ncl.Run(func(c Communicator) {
		out, st := AMSSort(c, append([]uint64(nil), locals[c.Rank()]...), u64Less,
			Config{Levels: 1, Seed: 7})
		if st.TotalNS < 0 {
			t.Errorf("PE %d: negative wall-clock total %d", c.Rank(), st.TotalNS)
		}
		outs[c.Rank()] = out
	})
	if elapsed <= 0 {
		t.Errorf("Run reported non-positive makespan %v", elapsed)
	}
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

// TestNativeBuildingBlocks drives Multiselect and Deliver through the
// native backend — the public building blocks must be backend-neutral
// too.
func TestNativeBuildingBlocks(t *testing.T) {
	const p = 6
	ncl := NewNative(p)
	ncl.Run(func(c Communicator) {
		local := make([]uint64, 10)
		for i := range local {
			local[i] = uint64(c.Rank()*10 + i)
		}
		pos := Multiselect(c, local, []int64{30}, u64Less, 5)
		want := 0
		if c.Rank() < 3 {
			want = 10
		}
		if len(pos) != 1 || pos[0] != want {
			t.Errorf("PE %d: Multiselect = %v, want [%d]", c.Rank(), pos, want)
		}
		pieces := [][]uint64{{1}, {2, 3, 4}}
		chunks := Deliver(c, pieces, DeliveryOptions{Strategy: DeliveryDeterministic, Seed: 5})
		total := 0
		for _, ch := range chunks {
			total += len(ch)
		}
		want = 2
		if c.Rank() >= p/2 {
			want = 6
		}
		if total != want {
			t.Errorf("PE %d received %d elements, want %d", c.Rank(), total, want)
		}
	})
}
