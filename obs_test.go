package pmsort

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"pmsort/internal/obs"
)

func obsTestLocals(p, perPE int) [][]uint64 {
	locals := make([][]uint64, p)
	for rank := range locals {
		rng := rand.New(rand.NewSource(int64(rank) + 99))
		locals[rank] = make([]uint64, perPE)
		for i := range locals[rank] {
			locals[rank][i] = rng.Uint64()
		}
	}
	return locals
}

// parseChrome unmarshals a Chrome trace buffer and returns the set of
// pids carrying "X" span events.
func parseChrome(t *testing.T, buf []byte) map[int32]int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int32  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("Chrome trace JSON does not parse: %v", err)
	}
	pids := map[int32]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid]++
		}
	}
	return pids
}

// TestObsNativeGatherTrace runs a traced sort on the native backend
// through the public API and checks the merged trace end to end.
func TestObsNativeGatherTrace(t *testing.T) {
	const p = 4
	cl := NewNative(p)
	cl.EnableObs()
	locals := obsTestLocals(p, 3000)
	var trace *ObsTrace
	cl.Run(func(c Communicator) {
		_, _ = AMSSort(c, locals[c.Rank()], u64Less, Config{Levels: 1, Seed: 5, Key: u64Key})
		if tr := GatherTrace(c); tr != nil {
			trace = tr
		}
	})
	if trace == nil {
		t.Fatal("GatherTrace returned nil on rank 0")
	}
	if err := trace.Validate(); err != nil {
		t.Fatalf("merged native trace invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	pids := parseChrome(t, buf.Bytes())
	if len(pids) != p {
		t.Fatalf("trace spans cover %d ranks, want %d", len(pids), p)
	}
	var report bytes.Buffer
	if err := trace.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if report.Len() == 0 {
		t.Fatal("empty report")
	}
}

// TestObsSimMultiLevel checks the simulated backend's virtual-time
// trace on a two-level sort: a level span per rank for both levels.
func TestObsSimMultiLevel(t *testing.T) {
	const p, perPE = 64, 200
	cl := New(p)
	cl.EnableObs()
	locals := obsTestLocals(p, perPE)
	var trace *ObsTrace
	cl.Run(func(pe *PE) {
		c := World(pe)
		_, _ = AMSSort(c, locals[pe.Rank()], u64Less, Config{Levels: 2, Seed: 5, Key: u64Key})
		if tr := GatherTrace(c); tr != nil {
			trace = tr
		}
	})

	if trace == nil {
		t.Fatal("GatherTrace returned nil on rank 0")
	}
	if err := trace.Validate(); err != nil {
		t.Fatalf("merged sim trace invalid: %v", err)
	}
	levels := map[int32]int{}
	for _, snap := range trace.Snaps {
		for _, sp := range snap.Spans {
			if sp.Name == obs.SpanLevel {
				levels[sp.Level]++
			}
		}
	}
	if levels[0] != p || levels[1] != p {
		t.Fatalf("level spans per level: %v, want %d each for levels 0 and 1", levels, p)
	}
}

// TestObsStatsInvariants holds every sorter's Stats to the documented
// invariants on a sim run at p = 8: each phase's level columns sum to
// PhaseNS exactly, and the data-delivery phase counts received bytes.
// AMS and RLM run on a two-level plan, and RLM charges its initial sort
// to level 0.
func TestObsStatsInvariants(t *testing.T) {
	const p, perPE = 8, 2000
	twoLevel := Config{Levels: 2, Rs: []int{2, 4}, Seed: 5, Key: u64Key}
	sorters := []struct {
		name string
		run  func(c Communicator, data []uint64) *Stats
	}{
		{"ams", func(c Communicator, d []uint64) *Stats { _, st := AMSSort(c, d, u64Less, twoLevel); return st }},
		{"rlm", func(c Communicator, d []uint64) *Stats { _, st := RLMSort(c, d, u64Less, twoLevel); return st }},
		{"gv", func(c Communicator, d []uint64) *Stats { _, st := GVSampleSort(c, d, u64Less, 5); return st }},
		{"mp", func(c Communicator, d []uint64) *Stats { _, st := MPSort(c, d, u64Less, 5); return st }},
		{"bitonic", func(c Communicator, d []uint64) *Stats { _, st := BitonicSort(c, d, u64Less, 5); return st }},
		{"hist", func(c Communicator, d []uint64) *Stats { _, st := HistogramSort(c, d, u64Less, 0, 5); return st }},
		{"hcq", func(c Communicator, d []uint64) *Stats { _, st := HCQuicksort(c, d, u64Less, 5); return st }},
	}
	for _, sorter := range sorters {
		t.Run(sorter.name, func(t *testing.T) {
			locals := obsTestLocals(p, perPE)
			allStats := make([]*Stats, p)
			New(p).Run(func(pe *PE) {
				allStats[pe.Rank()] = sorter.run(World(pe), locals[pe.Rank()])
			})
			for rank, st := range allStats {
				if len(st.LevelPhaseNS) == 0 {
					t.Fatalf("rank %d: empty LevelPhaseNS", rank)
				}
				for ph := Phase(0); ph < NumPhases; ph++ {
					var sum int64
					for _, row := range st.LevelPhaseNS {
						sum += row[ph]
					}
					if sum != st.PhaseNS[ph] {
						t.Errorf("rank %d phase %v: level columns sum to %d, PhaseNS %d",
							rank, ph, sum, st.PhaseNS[ph])
					}
				}
				if st.PhaseBytes[PhaseDataDelivery] <= 0 {
					t.Errorf("rank %d: PhaseBytes[data delivery] = %d, want > 0", rank, st.PhaseBytes[PhaseDataDelivery])
				}
				if sorter.name == "ams" || sorter.name == "rlm" {
					if len(st.LevelPhaseNS) != 2 {
						t.Errorf("rank %d: %d levels in LevelPhaseNS, want 2", rank, len(st.LevelPhaseNS))
					}
				}
				if sorter.name == "rlm" && st.LevelPhaseNS[0][PhaseLocalSort] == 0 {
					t.Errorf("rank %d: initial sort not charged to level 0", rank)
				}
			}
		})
	}
}

// spanShape is one span's place in the tree: its name, recursion level
// and nesting depth.
type spanShape struct {
	name         string
	level, depth int32
}

// TestObsSpanTree pins the span tree every rank records for a traced
// sim sort at p = 8: two-level AMS on its keyed last level and, under
// NoPrefix, on its comparator last level (the same shape), and
// two-level RLM. Benchmarks read
// spans by name and the trace validator checks their nesting, so a
// moved, renamed or re-nested span is a diff here.
func TestObsSpanTree(t *testing.T) {
	const p = 8
	cases := []struct {
		name string
		cfg  Config
		sort func(c Communicator, d []uint64, cfg Config)
		want []spanShape
	}{
		{"ams", Config{Levels: 2, Rs: []int{2, 2}, Seed: 5},
			func(c Communicator, d []uint64, cfg Config) { AMSSort(c, d, u64Less, cfg) },
			[]spanShape{
				{"ams-sort", -1, 0},
				{"level", 0, 1},
				{"splitter-selection", 0, 2},
				{"sample", 0, 3},
				{"splitter-sort", 0, 3},
				{"classify", 0, 2},
				{"exchange", 0, 2},
				{"deliver", -1, 3},
				{"level", 1, 2},
				{"splitter-selection", 1, 3},
				{"sample", 1, 4},
				{"splitter-sort", 1, 4},
				{"classify", 1, 3},
				{"exchange", 1, 3},
				{"deliver", -1, 4},
				{"local-sort", 1, 3},
			}},
		{"ams-noprefix", Config{Levels: 2, Rs: []int{2, 2}, Seed: 5, NoPrefix: true},
			func(c Communicator, d []uint64, cfg Config) { AMSSort(c, d, u64Less, cfg) },
			[]spanShape{
				{"ams-sort", -1, 0},
				{"level", 0, 1},
				{"splitter-selection", 0, 2},
				{"sample", 0, 3},
				{"splitter-sort", 0, 3},
				{"classify", 0, 2},
				{"exchange", 0, 2},
				{"deliver", -1, 3},
				{"level", 1, 2},
				{"splitter-selection", 1, 3},
				{"sample", 1, 4},
				{"splitter-sort", 1, 4},
				{"classify", 1, 3},
				{"exchange", 1, 3},
				{"deliver", -1, 4},
				{"local-sort", 1, 3},
			}},
		{"rlm", Config{Levels: 2, Rs: []int{2, 4}, Seed: 5},
			func(c Communicator, d []uint64, cfg Config) { RLMSort(c, d, u64Less, cfg) },
			[]spanShape{
				{"rlm-sort", -1, 0},
				{"local-sort", 0, 1},
				{"level", 0, 1},
				{"splitter-selection", 0, 2},
				{"exchange", 0, 2},
				{"deliver", -1, 3},
				{"merge", 0, 2},
				{"level", 1, 2},
				{"splitter-selection", 1, 3},
				{"exchange", 1, 3},
				{"deliver", -1, 4},
				{"merge", 1, 3},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(p)
			cl.EnableObs()
			locals := obsTestLocals(p, 1000)
			var trace *ObsTrace
			cl.Run(func(pe *PE) {
				c := World(pe)
				tc.sort(c, locals[pe.Rank()], tc.cfg)
				if tr := GatherTrace(c); tr != nil {
					trace = tr
				}
			})
			if trace == nil {
				t.Fatal("GatherTrace returned nil on rank 0")
			}
			if err := trace.Validate(); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			for _, snap := range trace.Snaps {
				var got []spanShape
				for _, sp := range snap.Spans {
					got = append(got, spanShape{sp.Name, sp.Level, sp.Depth})
				}
				if !slices.Equal(got, tc.want) {
					t.Errorf("rank %d span tree:\n%#v\nwant\n%#v", snap.Rank, got, tc.want)
				}
			}
		})
	}
}

// TestObsGatherDisabled: gathering from an untracked cluster still
// produces a valid (empty) merged trace covering every rank.
func TestObsGatherDisabled(t *testing.T) {
	const p = 2
	cl := NewNative(p)
	locals := obsTestLocals(p, 100)
	var trace *ObsTrace
	cl.Run(func(c Communicator) {
		_, _ = AMSSort(c, locals[c.Rank()], u64Less, Config{Levels: 1, Seed: 5})
		if tr := GatherTrace(c); tr != nil {
			trace = tr
		}
	})
	if trace == nil {
		t.Fatal("GatherTrace returned nil on rank 0")
	}
	if err := trace.Validate(); err != nil {
		t.Fatalf("disabled-tracing gather invalid: %v", err)
	}
	if len(trace.Snaps) != p {
		t.Fatalf("%d snapshots, want %d", len(trace.Snaps), p)
	}
	for _, snap := range trace.Snaps {
		if len(snap.Spans) != 0 {
			t.Errorf("rank %d: %d spans with tracing off", snap.Rank, len(snap.Spans))
		}
	}
}
