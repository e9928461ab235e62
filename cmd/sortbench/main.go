// Command sortbench regenerates every table and figure of the paper's
// evaluation section (§7, Appendix E) on the simulated machine, and
// compares the simulated backend against the native shared-memory
// backend and an in-process TCP loopback mesh (virtual time next to
// wall-clock time). See DESIGN.md §3 for
// the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
//
// Usage:
//
//	sortbench -experiment all                 # everything, default grids
//	sortbench -experiment table2 -reps 5
//	sortbench -experiment fig8 -ps 512,2048 -perpe 1000,10000
//	sortbench -experiment fig10 -p 256 -n 10000
//	sortbench -experiment backends -ntotal 100000  # sim vs native vs TCP loopback mesh
//	sortbench -experiment torture -seed 1027       # replay one torture case
//	sortbench -experiment torture -seed 1000 -count 100  # seeded sweep
//	sortbench -quick                          # small grids for a smoke run
//	sortbench -trace trace.json -report -     # one traced AMS run (native p=4):
//	                                          # Chrome trace JSON + text report
//	sortbench -trace tcp.json -tracebackend tcp -tracep 4  # same over real sockets
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"pmsort/internal/expt"
)

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// experiments names every -experiment value, in -experiment all order
// (torture is a repro tool and runs only when named).
var experiments = []string{"table1", "table2", "fig7", "fig8", "fig10", "fig11", "fig12", "compare", "delivery", "alltoall", "backends", "torture", "all"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes tables to w and
// diagnostics and progress to stderr, and returns the exit code (2 for
// usage errors, 1 for a failed run).
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("sortbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", strings.Join(experiments, "|"))
		psFlag     = fs.String("ps", "", "comma-separated PE counts (default 512,2048,8192)")
		perpeFlag  = fs.String("perpe", "", "comma-separated n/p values (default 1000,10000,100000)")
		reps       = fs.Int("reps", 3, "repetitions per configuration (paper: 5)")
		seed       = fs.Uint64("seed", 42, "base random seed")
		sweepP     = fs.Int("p", 256, "PE count for the fig10/fig11 sweeps")
		sweepN     = fs.Int("n", 10000, "n/p for the fig10/fig11 sweeps")
		nativeN    = fs.Int("ntotal", 200_000, "TOTAL element count for the backends experiment (split over p)")
		count      = fs.Int("count", 1, "number of consecutive-seed cases for the torture experiment")
		quick      = fs.Bool("quick", false, "small grids for a fast smoke run")
		noTCP      = fs.Bool("notcp", false, "skip the TCP loopback-mesh column of the backends experiment")
		kernels    = fs.String("kernels", "keyed,cmp,cmp+prefix", "backends experiment: comma-separated local-kernel rows (keyed|cmp|cmp+prefix)")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
		traceOut   = fs.String("trace", "", "run one traced AMS sort and write the merged Chrome trace JSON here (chrome://tracing / Perfetto); skips the experiments")
		reportOut  = fs.String("report", "", "with/instead of -trace: write the traced run's plain-text span+counter report here ('-' = stdout)")
		traceBack  = fs.String("tracebackend", "native", "backend for the traced run: "+strings.Join(expt.BackendNames, "|"))
		traceP     = fs.Int("tracep", 4, "PE count for the traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "sortbench: %v\n", err)
		return 2
	}
	if !slices.Contains(experiments, *experiment) {
		return usage(fmt.Errorf("unknown -experiment %q (want %s)", *experiment, strings.Join(experiments, ", ")))
	}
	ps, err := parseInts(*psFlag)
	if err != nil {
		return usage(err)
	}
	perPEs, err := parseInts(*perpeFlag)
	if err != nil {
		return usage(err)
	}

	progress := stderr
	if *quiet {
		progress = nil
	}

	// Traced run: one instrumented AMS sort on the chosen backend, merged
	// multi-rank trace out, no experiment tables.
	if *traceOut != "" || *reportOut != "" {
		p := *traceP
		perPE := *nativeN / p
		k := 1
		if p >= 4 {
			k = 2 // multi-level traces show the per-level span hierarchy
		}
		spec := expt.Spec{Algo: expt.AMS, P: p, PerPE: perPE, Levels: k, Seed: *seed, Keyed: true}
		if err := expt.TraceRun(spec, *traceBack, *traceOut, *reportOut, progress); err != nil {
			fmt.Fprintf(stderr, "sortbench: %v\n", err)
			return 1
		}
		return 0
	}
	opt := expt.SuiteOptions{
		Ps:       ps,
		PerPEs:   perPEs,
		Reps:     *reps,
		Seed:     *seed,
		Progress: progress,
	}
	if *quick {
		if opt.Ps == nil {
			opt.Ps = []int{64, 256, 1024}
		}
		if opt.PerPEs == nil {
			opt.PerPEs = []int{256, 2048, 16384}
		}
		if *sweepP == 256 {
			*sweepP = 64
		}
		if *sweepN == 10000 {
			*sweepN = 1024
		}
	}
	opt = opt.Defaults()

	needWeak := map[string]bool{"table2": true, "fig7": true, "fig8": true, "fig12": true, "all": true}
	var weak *expt.WeakData
	if needWeak[*experiment] {
		algos := []expt.Algo{expt.AMS}
		if *experiment == "fig7" || *experiment == "all" {
			algos = append(algos, expt.RLM)
		}
		weak = expt.RunWeakScaling(opt, algos)
	}

	// Torture is a repro/soak tool, not a paper experiment: it never runs
	// under -experiment all, and a failed invariant exits non-zero.
	if *experiment == "torture" {
		if err := expt.Torture(w, *seed, *count, progress); err != nil {
			return 1
		}
		return 0
	}

	status := 0
	section := func(name string, fn func()) {
		if *experiment == name || *experiment == "all" {
			fn()
			fmt.Fprintln(w)
		}
	}
	section("table1", func() { expt.Table1(w, nil) })
	section("table2", func() { weak.Table2(w) })
	section("fig7", func() { weak.Fig7(w) })
	section("fig8", func() { weak.Fig8(w) })
	section("fig10", func() { expt.Fig10(w, *sweepP, *sweepN, *reps, *seed, progress) })
	section("fig11", func() { expt.Fig11(w, *sweepP, *sweepN, *reps, *seed, progress) })
	section("fig12", func() { weak.Fig12(w) })
	section("compare", func() { expt.Compare(w, opt) })
	section("delivery", func() { expt.DeliveryAblation(w, min(opt.Ps[len(opt.Ps)-1], 512), 1000, *reps, *seed, progress) })
	section("alltoall", func() { expt.AlltoallAblation(w, nil, 1000, *reps, *seed, progress) })
	// The backend comparison runs real goroutines and sockets, so its PE
	// counts follow the host, not the simulated grids.
	section("backends", func() {
		ps := []int{1, 2, 4, 8, 16}
		n := *nativeN
		if *quick {
			ps = []int{1, 2, 4}
			if n == 200_000 {
				n = 20_000
			}
		}
		ks := strings.Split(*kernels, ",")
		for i := range ks {
			ks[i] = strings.TrimSpace(ks[i])
		}
		if err := expt.Backends(w, ps, n, *reps, *seed, !*noTCP, ks, progress); err != nil {
			status = usage(err)
		}
	})
	return status
}
