package expt

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"pmsort/internal/core"
	"pmsort/internal/workload"
)

// BackendKernels names the local-kernel variants the backends
// experiment can compare: the ordered-key radix fast path (Config.Key),
// the plain comparator path (prefix cache off), and the prefix-cached
// comparator path.
var BackendKernels = []string{"keyed", "cmp", "cmp+prefix"}

// writeLevelPhases prints one indented row per recursion level with the
// four phase times in ms (max over PEs; see Stats.LevelPhaseNS). A nil
// breakdown (tcp off) prints nothing.
func writeLevelPhases(w io.Writer, backend string, levels [][core.NumPhases]int64) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for lv, row := range levels {
		fmt.Fprintf(w, "       %-7s L%-2d sel=%9.3f  bucket=%9.3f  exch=%9.3f  sort=%9.3f\n",
			backend, lv,
			ms(row[core.PhaseSplitterSelection]),
			ms(row[core.PhaseBucketProcessing]),
			ms(row[core.PhaseDataDelivery]),
			ms(row[core.PhaseLocalSort]))
	}
}

// kernelSpec applies one kernel variant to a spec.
func kernelSpec(spec Spec, kernel string) (Spec, error) {
	switch kernel {
	case "keyed":
		spec.Keyed = true
	case "cmp":
		spec.PrefixMode = PrefixOff
	case "cmp+prefix":
		spec.PrefixMode = PrefixAuto
	default:
		return spec, fmt.Errorf("expt: unknown backends kernel %q (want keyed, cmp, or cmp+prefix)", kernel)
	}
	return spec, nil
}

// fastestRun runs the spec reps times on one backend and keeps the run
// with the smallest TotalNS.
func fastestRun(backend string, spec Spec, reps int, kernel string, progress io.Writer) (Result, error) {
	var best Result
	for rep := 0; rep < reps; rep++ {
		if progress != nil {
			fmt.Fprintf(progress, "# backends p=%d kernel=%s %s rep %d/%d\n", spec.P, kernel, backend, rep+1, reps)
		}
		res, err := Run(backend, spec)
		if err != nil {
			return res, err
		}
		if rep == 0 || res.TotalNS < best.TotalNS {
			best = res
		}
	}
	return best, nil
}

// Backends compares the communication backends on AMS-sort under
// strong scaling: one fixed input of n elements is split over p PEs and
// sorted on the simulated backend (reporting virtual α-β time), on the
// native shared-memory backend (wall-clock time), and — when tcp is set
// — on an in-process p-rank TCP loopback mesh (real sockets and the real
// wire codec, one process; wall-clock time of the sort proper, excluding
// rendezvous), next to a single sort.Slice over the whole input on one
// core — the sequential reference every native number is a speedup
// against. Wall-clock numbers take the minimum over reps runs; virtual
// time is deterministic and measured once. Real speedup saturates
// around p = GOMAXPROCS; beyond that the goroutine-PEs time-share cores.
// Multi-process numbers come from `sortnode -launch`, not from here.
//
// Each p is measured once per requested kernel (see BackendKernels), so
// the keyed / plain-comparator / prefix-cached gap is visible side by
// side in one run. The one-core reference stays sort.Slice for every
// kernel — it is the fixed sequential baseline every recorded speedup
// in the README's trajectory is measured against.
func Backends(w io.Writer, ps []int, n, reps int, seed uint64, tcp bool, kernels []string, progress io.Writer) error {
	if reps < 1 {
		reps = 1
	}
	if len(kernels) == 0 {
		kernels = BackendKernels
	}
	for _, kernel := range kernels {
		if _, err := kernelSpec(Spec{}, kernel); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "Backends: AMS-sort simulated vs native shared-memory vs in-process TCP loopback mesh, n=%d total, GOMAXPROCS=%d (wall: min of %d)\n",
		n, runtime.GOMAXPROCS(0), reps)
	fmt.Fprintf(w, "kernel: keyed = Config.Key radix; cmp = plain comparator (NoPrefix); cmp+prefix = comparator with the derived prefix (exact for uint64, so the keyed kernels run).\n")
	fmt.Fprintf(w, "Per-level phase rows (ms, max over PEs): sel = splitter selection, bucket = bucket processing (classify + merge),\n")
	fmt.Fprintf(w, "exch = data delivery (the bulk exchange, incl. work overlapped into it), sort = local sort. RLM-style level 0 holds the initial sort.\n")
	fmt.Fprintf(w, "%-6s %-10s %-2s %-8s %13s %16s %13s %15s %8s\n",
		"p", "kernel", "k", "n/p", "sim-virt(ms)", "native-wall(ms)", "tcp-wall(ms)", "1core-wall(ms)", "speedup")

	// Sequential reference: one core sorting the whole input.
	var seqNS int64 = 1<<63 - 1
	for rep := 0; rep < reps; rep++ {
		all := workload.Local(workload.Uniform, seed, 1, n, 0)
		t0 := time.Now()
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		if ns := time.Since(t0).Nanoseconds(); ns < seqNS {
			seqNS = ns
		}
	}

	for _, p := range ps {
		perPE := n / p
		if perPE == 0 {
			continue
		}
		k := 1
		if p > 16 {
			k = 2
		}
		for _, kernel := range kernels {
			spec, err := kernelSpec(Spec{Algo: AMS, P: p, PerPE: perPE, Levels: k, Seed: seed}, kernel)
			if err != nil {
				return err
			}
			simRes, err := fastestRun("sim", spec, 1, kernel, progress)
			if err != nil {
				return err
			}
			nativeRes, err := fastestRun("native", spec, reps, kernel, progress)
			if err != nil {
				return err
			}
			tcpCol := "-"
			var tcpRes Result
			if tcp {
				if tcpRes, err = fastestRun("tcp", spec, reps, kernel, progress); err != nil {
					return err
				}
				tcpCol = fmt.Sprintf("%.3f", float64(tcpRes.TotalNS)/1e6)
			}

			fmt.Fprintf(w, "%-6d %-10s %-2d %-8d %13.3f %16.3f %13s %15.3f %8.2f\n",
				p, kernel, k, perPE,
				float64(simRes.TotalNS)/1e6,
				float64(nativeRes.TotalNS)/1e6,
				tcpCol,
				float64(seqNS)/1e6,
				float64(seqNS)/float64(nativeRes.TotalNS))
			writeLevelPhases(w, "sim", simRes.LevelPhaseNS)
			writeLevelPhases(w, "native", nativeRes.LevelPhaseNS)
			writeLevelPhases(w, "tcp", tcpRes.LevelPhaseNS)
		}
	}
	return nil
}
