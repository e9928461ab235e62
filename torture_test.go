package pmsort

// Property-based torture suite: randomized (sorter × backend × p × n ×
// distribution × config × element type) scenarios under the chaos
// middleware, asserting the paper's invariants — globally sorted
// output, multiset preservation, bounded imbalance, and byte-identical
// results across backends. Each case derives entirely from one seed;
// a failure reproduces with `sortbench -experiment torture -seed N`.
//
// Entry points:
//
//	go test -run TestTortureSweep                      # fixed sweep
//	go test -run TestTortureSeeded -args -torture.seeds=11,22
//	go test -fuzz FuzzSortConformance -fuzztime 30s .  # keep exploring
//	go test -args -torture.n=200                       # a longer sweep

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"pmsort/internal/expt"
)

var (
	tortureSeeds = flag.String("torture.seeds", "",
		"comma-separated torture seeds for TestTortureSeeded (CI chaos matrix)")
	tortureN = flag.Int("torture.n", 48,
		"number of consecutive-seed cases TestTortureSweep runs")
	tortureBase = flag.Uint64("torture.base", 1000,
		"first seed of the TestTortureSweep range")
)

// TestTortureSweep runs a deterministic range of torture cases. The
// default budget keeps `go test ./...` fast; CI and soak runs raise
// -torture.n.
func TestTortureSweep(t *testing.T) {
	n := *tortureN
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		seed := *tortureBase + uint64(i)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			tc := expt.DeriveTorture(seed)
			if _, err := expt.RunTorture(tc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTortureSeeded runs exactly the seeds given via -torture.seeds —
// the CI chaos matrix pins three fixed seeds under -race, and a
// developer replays any failing seed the same way.
func TestTortureSeeded(t *testing.T) {
	if *tortureSeeds == "" {
		t.Skip("no -torture.seeds given")
	}
	for _, s := range strings.Split(*tortureSeeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("bad seed %q: %v", s, err)
		}
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			tc := expt.DeriveTorture(seed)
			line, err := expt.RunTorture(tc)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(line)
		})
	}
}

// TestTortureNetFaultLeg guarantees the network-fault dimension runs
// in every `go test` regardless of which sweep seeds happen to draw
// it: a real TCP loopback leg under the mild seeded netfault profile
// (latency, jitter, torn writes, sub-window read stalls) plus
// heartbeats must still satisfy every sort invariant, and the
// harness's engagement check proves the injector actually fired.
func TestTortureNetFaultLeg(t *testing.T) {
	tc := expt.DeriveTorture(84) // AMS p=4 — any seed works, faults are forced below
	tc.TCP = true
	tc.NetFault = true
	if tc.Spec.P > 4 {
		tc.Spec.P = 4
	}
	line, err := expt.RunTorture(tc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(line)
}

// TestTortureDerivationIsPure pins the repro contract: deriving a case
// from a seed twice yields the identical case (no hidden global state),
// so the seed alone is a complete failure description.
func TestTortureDerivationIsPure(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		a, b := expt.DeriveTorture(seed), expt.DeriveTorture(seed)
		if a != b {
			t.Fatalf("seed %d derived two different cases:\n%v\n%v", seed, a, b)
		}
		if a.Spec.P < 1 || a.Spec.PerPE < 1 || a.Spec.Levels < 1 {
			t.Fatalf("seed %d derived a degenerate case: %v", seed, a)
		}
	}
}

// TestWrapChaosPublicAPI drives the exported chaos surface end to end:
// a user wraps the world communicator of a native cluster, sorts, and
// reads the audit back — no internal imports required.
func TestWrapChaosPublicAPI(t *testing.T) {
	const p, perPE = 4, 200
	aud := &ChaosAudit{}
	cfg := ChaosConfig{Seed: 12, Shake: true, ForceSerialize: true, Audit: aud}
	locals := conformanceInput(p, perPE)

	plain := make([][]uint64, p)
	NewNative(p).Run(func(c Communicator) {
		out, _ := AMSSort(c, append([]uint64(nil), locals[c.Rank()]...), u64Less,
			Config{Levels: 2, Seed: 11})
		plain[c.Rank()] = out
	})
	wrapped := make([][]uint64, p)
	NewNative(p).Run(func(c Communicator) {
		out, _ := AMSSort(WrapChaos(c, cfg), append([]uint64(nil), locals[c.Rank()]...), u64Less,
			Config{Levels: 2, Seed: 11})
		wrapped[c.Rank()] = out
	})
	for rank := range plain {
		if len(plain[rank]) != len(wrapped[rank]) {
			t.Fatalf("PE %d: chaos changed the output length %d -> %d",
				rank, len(plain[rank]), len(wrapped[rank]))
		}
		for i := range plain[rank] {
			if plain[rank][i] != wrapped[rank][i] {
				t.Fatalf("PE %d element %d: chaos changed the output", rank, i)
			}
		}
	}
	if vs := aud.Violations(); len(vs) != 0 {
		t.Fatalf("clean sort flagged: %v", vs)
	}
	if msgs, _, _ := aud.Messages(); msgs == 0 {
		t.Fatal("middleware not engaged")
	}
}

// FuzzSortConformance is the native fuzz target over the same property:
// the fuzzer explores the seed space beyond the fixed sweep, and any
// crasher it minimizes is immediately a sortbench repro line.
func FuzzSortConformance(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		tc := expt.DeriveTorture(seed)
		// Keep single fuzz executions snappy: cap the largest grids and
		// skip the TCP leg (real sockets and rendezvous would dominate
		// the fuzzing budget; the sweep and the CI matrix cover it).
		tc.TCP = false
		if tc.Spec.P > 8 {
			tc.Spec.P = 8
		}
		if tc.Spec.PerPE > 150 {
			tc.Spec.PerPE = 150
		}
		if _, err := expt.RunTorture(tc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTortureReportsFailures pins the harness's own alarm wire: a case
// with a deliberately broken invariant check must fail, proving the
// sweep is not vacuously green. We misuse the multiset hash by feeding
// a sorter that drops nothing through a harness primed with a wrong
// expected count — simplest is to run a case and tamper with the
// derived spec so an assertion must trip: Bitonic requires a
// power-of-two p, so p=3 panics inside the sorter and the harness must
// surface that as an error, not a hang or a silent pass.
func TestTortureReportsFailures(t *testing.T) {
	tc := expt.DeriveTorture(4242)
	tc.Spec.Algo = expt.Bitonic
	tc.Spec.P = 3
	tc.Spec.PerPE = 10
	tc.TCP = false
	if _, err := expt.RunTorture(tc); err == nil {
		t.Fatal("broken case reported success")
	} else if !strings.Contains(err.Error(), "seed") {
		t.Errorf("failure does not name the repro seed: %v", err)
	}
}
