package expt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/workload"
)

// simRun is Run on the simulator for tests that only want the numbers.
func simRun(t *testing.T, spec Spec) Result {
	t.Helper()
	res, err := Run("sim", spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidatesAllAlgos(t *testing.T) {
	for _, algo := range []Algo{AMS, RLM, MP, GV, Bitonic, Hist, HCQ} {
		res := simRun(t, Spec{Algo: algo, P: 16, PerPE: 64, Levels: 2, Seed: 5})
		if res.TotalNS <= 0 {
			t.Errorf("%v: no time elapsed", algo)
		}
		if res.OutImbalance < 1 {
			t.Errorf("%v: impossible imbalance %f", algo, res.OutImbalance)
		}
	}
}

func TestRunWorkloadKinds(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.Skewed, workload.Sorted,
		workload.Reverse, workload.AlmostSorted, workload.OnePE} {
		res := simRun(t, Spec{Algo: AMS, P: 8, PerPE: 50, Levels: 2, Seed: 6, Kind: kind})
		if res.TotalNS <= 0 {
			t.Errorf("%v: no time elapsed", kind)
		}
	}
	// DupHeavy stays balanced: AMS always breaks ties (App. D).
	res := simRun(t, Spec{Algo: AMS, P: 8, PerPE: 50, Levels: 1, Seed: 6, Kind: workload.DupHeavy})
	if res.OutImbalance > 3 {
		t.Errorf("dup-heavy with tie-breaking: imbalance %f", res.OutImbalance)
	}
}

func TestRunRepsVariesSeeds(t *testing.T) {
	rs := runReps(Spec{Algo: AMS, P: 8, PerPE: 100, Levels: 2, Seed: 1}, 3, nil)
	if len(rs) != 3 {
		t.Fatalf("want 3 results, got %d", len(rs))
	}
	// Different seeds -> different inputs -> (almost surely) different times.
	if rs[0].TotalNS == rs[1].TotalNS && rs[1].TotalNS == rs[2].TotalNS {
		t.Errorf("all repetition times identical — seeds not varied?")
	}
}

func TestTable1Shape(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, nil)
	out := buf.String()
	for _, want := range []string{"p=512", "p=32768", "2048", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 8 { // header + title + 6 level rows
		t.Errorf("Table 1 has %d lines, want 8:\n%s", lines, out)
	}
}

func TestWeakScalingSmallGrid(t *testing.T) {
	opt := SuiteOptions{
		Ps:     []int{16, 64},
		PerPEs: []int{64, 512},
		Levels: []int{1, 2},
		Reps:   3,
		Seed:   9,
	}
	d := RunWeakScaling(opt, []Algo{AMS, RLM})
	var buf bytes.Buffer
	d.Table2(&buf)
	d.Fig7(&buf)
	d.Fig8(&buf)
	d.Fig12(&buf)
	out := buf.String()
	for _, want := range []string{"Table 2", "Figure 7", "Figure 8", "Figure 12", "p=16", "p=64"} {
		if !strings.Contains(out, want) {
			t.Errorf("weak scaling output missing %q", want)
		}
	}
	if strings.Contains(out, "-") && strings.Contains(out, "p=16\n") {
		t.Errorf("unexpected missing cells in small grid:\n%s", out)
	}
	// Every cell ran with both algorithms and level choices.
	if len(d.Cells) != 2*2*2*2 {
		t.Errorf("expected 16 cells, got %d", len(d.Cells))
	}
}

func TestBestMedianPrefersFasterLevel(t *testing.T) {
	opt := SuiteOptions{Ps: []int{64}, PerPEs: []int{64}, Levels: []int{1, 2}, Reps: 3, Seed: 3}
	d := RunWeakScaling(opt, []Algo{AMS})
	// At p=64 with tiny n/p, two levels must win (fewer startups).
	_, k, ok := d.bestMedian(AMS, 64, 64)
	if !ok || k != 2 {
		t.Errorf("best level = %d (ok=%v), want 2", k, ok)
	}
}

func TestFig10Fig11Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig10(&buf, 16, 256, 1, 4, nil)
	Fig11(&buf, 16, 256, 1, 4, nil)
	out := buf.String()
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "Figure 11") {
		t.Errorf("figure sweep output malformed:\n%s", out)
	}
}

func TestCompareSmoke(t *testing.T) {
	var buf bytes.Buffer
	Compare(&buf, SuiteOptions{Ps: []int{16, 32}, PerPEs: []int{64}, Levels: []int{1, 2}, Reps: 1, Seed: 2})
	out := buf.String()
	if !strings.Contains(out, "MP-sort") || !strings.Contains(out, "bitonic") {
		t.Errorf("comparison output malformed:\n%s", out)
	}
}

func TestDeliveryAblationSmoke(t *testing.T) {
	var buf bytes.Buffer
	DeliveryAblation(&buf, 16, 128, 1, 5, nil)
	out := buf.String()
	for _, s := range []string{"simple", "randomized", "deterministic", "uniform", "skewed"} {
		if !strings.Contains(out, s) {
			t.Errorf("delivery ablation missing %q:\n%s", s, out)
		}
	}
}

func TestAlltoallAblationSmoke(t *testing.T) {
	var buf bytes.Buffer
	AlltoallAblation(&buf, []int{16, 32}, 64, 1, 6, nil)
	out := buf.String()
	if !strings.Contains(out, "1-factor") || !strings.Contains(out, "direct") {
		t.Errorf("alltoall ablation malformed:\n%s", out)
	}
}

func TestDeliveryStrategiesInsideSorters(t *testing.T) {
	for _, strat := range []delivery.Strategy{delivery.Simple, delivery.Deterministic} {
		res := simRun(t, Spec{Algo: RLM, P: 12, PerPE: 40, Levels: 2, Seed: 8,
			Delivery: delivery.Options{Strategy: strat}})
		if res.OutImbalance > 1.1 {
			t.Errorf("%v: RLM output imbalance %f (want ≈1)", strat, res.OutImbalance)
		}
	}
}

func TestAlgoString(t *testing.T) {
	for a, want := range map[Algo]string{AMS: "AMS-sort", RLM: "RLM-sort", MP: "MP-sort",
		GV: "GV-sample-sort", Bitonic: "bitonic"} {
		if a.String() != want {
			t.Errorf("Algo(%d) = %q want %q", a, a.String(), want)
		}
	}
}

// TestRunBackends drives one Spec through the one harness entry on
// every backend: each leg validates and runs both planned levels, the
// wall-clock backends agree with the simulator on everything the data
// decides (output and level balance), and
// the two ways a run can go wrong — an unknown backend, a rank that
// dies — come back as errors instead of panics or hangs.
func TestRunBackends(t *testing.T) {
	spec := Spec{Algo: AMS, P: 20, PerPE: 200, Levels: 2, Seed: 11, Kind: workload.DupHeavy, Keyed: true}
	results := make(map[string]Result)
	for _, backend := range BackendNames {
		res, err := Run(backend, spec)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		// p=20 is the smallest plan with two levels (2 groups, then 16-PE nodes).
		if res.TotalNS <= 0 || res.OutImbalance < 1 || len(res.LevelPhaseNS) != 2 {
			t.Errorf("%s: implausible result %+v", backend, res)
		}
		if sim := backend == "sim"; (res.MaxMsgsRecv > 0) != sim {
			t.Errorf("%s: MaxMsgsRecv = %d (a simulator-only counter)", backend, res.MaxMsgsRecv)
		}
		results[backend] = res
	}
	// Placement is backend-independent (the cross-backend byte identity
	// the torture harness asserts), so the balance numbers must agree.
	for _, backend := range []string{"native", "tcp"} {
		if got, want := results[backend].OutImbalance, results["sim"].OutImbalance; got != want {
			t.Errorf("%s OutImbalance = %v, sim has %v", backend, got, want)
		}
		if got, want := results[backend].LevelImbalance, results["sim"].LevelImbalance; got != want {
			t.Errorf("%s LevelImbalance = %v, sim has %v", backend, got, want)
		}
	}

	if _, err := Run("mpi", spec); err == nil || !strings.Contains(err.Error(), `unknown backend "mpi"`) {
		t.Errorf("unknown backend: err = %v", err)
	}
	// Bitonic needs a power-of-two p: every rank of p=3 panics inside the
	// sorter, and the harness must hand that back as the run's error.
	bad := Spec{Algo: Bitonic, P: 3, PerPE: 10, Seed: 1}
	for _, backend := range BackendNames {
		if _, err := Run(backend, bad); err == nil {
			t.Errorf("%s: bitonic on p=3 did not fail", backend)
		}
	}
}

// TestRunFailingRankUnwinds is the asymmetric failure: one rank dies
// while its peers are parked in a receive from it. Every backend must
// unwind the survivors and report the error.
func TestRunFailingRankUnwinds(t *testing.T) {
	for _, backend := range BackendNames {
		done := make(chan error, 1)
		go func() {
			done <- onBackend(backend, 3, backendOpts{}, func(c comm.Communicator) {
				if c.Rank() == 1 {
					panic("rank 1 gives up")
				}
				c.Recv(1, tagValidate) // never sent
			})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "rank 1 gives up") && backend != "tcp" {
				t.Errorf("%s: err = %v, want rank 1's panic", backend, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: survivors still parked 30s after rank 1 died", backend)
		}
	}
}

func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]Algo{"ams": AMS, "rlm": RLM, "gv": GV, "mp": MP, "bitonic": Bitonic, "hist": Hist, "hcq": HCQ} {
		if got, ok := ParseAlgo(name); !ok || got != want {
			t.Errorf("ParseAlgo(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseAlgo("AMS-sort"); ok {
		t.Errorf("ParseAlgo accepted a display name")
	}
}

func TestBackendsAndTraceSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Backends(&buf, []int{1, 2}, 2000, 1, 3, true, []string{"keyed", "cmp"}, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tcp-wall(ms)", "cmp", "sim     L0", "native  L0", "tcp     L0"} {
		if !strings.Contains(out, want) {
			t.Errorf("backends output missing %q:\n%s", want, out)
		}
	}
	if err := Backends(&buf, []int{2}, 2000, 1, 3, false, []string{"simd"}, nil); err == nil {
		t.Errorf("unknown kernel accepted")
	}

	// One traced run per backend: the merged trace validates (every rank
	// present, spans nested) before TraceRun writes it.
	spec := Spec{Algo: AMS, P: 3, PerPE: 300, Levels: 1, Seed: 4, Keyed: true}
	for _, backend := range BackendNames {
		path := filepath.Join(t.TempDir(), backend+".json")
		if err := TraceRun(spec, backend, path, "", nil); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace written (%v)", backend, err)
		}
	}
	if err := TraceRun(spec, "native", "", "", nil); err == nil {
		t.Errorf("TraceRun without an output path succeeded")
	}
}

// TestTortureSmoke runs a few derived cases inside the package (the
// sweeps live in the root torture_test.go): two plain seeds, one case
// forced onto the netfault-injected TCP leg, and a broken case, which
// must come back naming its seed.
func TestTortureSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Torture(&buf, 1000, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "ok   seed="); got != 2 {
		t.Errorf("want 2 ok lines, got:\n%s", buf.String())
	}
	tc := DeriveTorture(84) // AMS p=4
	tc.TCP, tc.NetFault = true, true
	if line, err := RunTorture(tc); err != nil || !strings.Contains(line, "sim+native+tcp/fault") {
		t.Errorf("tcp/fault leg: %q, %v", line, err)
	}
	tc.Spec.Algo, tc.Spec.P = Bitonic, 3 // needs a power-of-two p
	if _, err := RunTorture(tc); err == nil || !strings.Contains(err.Error(), "-seed 84") {
		t.Errorf("broken case: err = %v, want a repro line", err)
	}
}
