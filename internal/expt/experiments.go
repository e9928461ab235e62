package expt

import (
	"fmt"
	"io"

	"pmsort/internal/core"
	"pmsort/internal/delivery"
	"pmsort/internal/stats"
	"pmsort/internal/workload"
)

// SuiteOptions configures the experiment grids. The defaults mirror the
// paper's weak-scaling setup scaled to one machine (see DESIGN.md §1):
// p ∈ {512, 2048, 8192} (the paper's ×4 progression, capped one step
// early) and n/p ∈ {10³, 10⁴, 10⁵} (the paper's {10⁵..10⁷} divided by
// 100).
type SuiteOptions struct {
	Ps       []int
	PerPEs   []int
	Levels   []int
	Reps     int
	Seed     uint64
	Kind     workload.Kind
	Progress io.Writer
	// MaxElems skips grid cells with p·perPE above it (memory guard); the
	// paper's own Table 2 also has an unmeasurable cell.
	MaxElems int64
	// MaxSingleLevelP skips 1-level runs above this p (p² messages).
	MaxSingleLevelP int
}

// Defaults fills in unset fields.
func (o SuiteOptions) Defaults() SuiteOptions {
	if o.Ps == nil {
		o.Ps = []int{512, 2048, 8192}
	}
	if o.PerPEs == nil {
		o.PerPEs = []int{1_000, 10_000, 100_000}
	}
	if o.Levels == nil {
		o.Levels = []int{1, 2, 3}
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.MaxElems == 0 {
		o.MaxElems = 1 << 28
	}
	if o.MaxSingleLevelP == 0 {
		o.MaxSingleLevelP = 2048
	}
	return o
}

func (o SuiteOptions) skip(p, perPE, levels int) bool {
	if int64(p)*int64(perPE) > o.MaxElems {
		return true
	}
	if levels == 1 && p > o.MaxSingleLevelP {
		return true
	}
	return false
}

// Table1 prints the per-level group counts of the weak-scaling
// configurations (paper Table 1). The extracted paper text renders the
// k=1 row ambiguously; we print r = p (the classic single-level
// configuration, see DESIGN.md §3).
func Table1(w io.Writer, ps []int) {
	if ps == nil {
		ps = []int{512, 2048, 8192, 32768}
	}
	fmt.Fprintf(w, "Table 1: selection of r for weak scaling experiments\n")
	fmt.Fprintf(w, "%-3s %-6s", "k", "level")
	for _, p := range ps {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("p=%d", p))
	}
	fmt.Fprintln(w)
	for k := 1; k <= 3; k++ {
		for lvl := 0; lvl < k; lvl++ {
			if lvl == 0 {
				fmt.Fprintf(w, "%-3d %-6d", k, lvl+1)
			} else {
				fmt.Fprintf(w, "%-3s %-6d", "", lvl+1)
			}
			for _, p := range ps {
				plan := core.PlanLevels(p, k)
				if lvl < len(plan) {
					fmt.Fprintf(w, " %8d", plan[lvl])
				} else {
					fmt.Fprintf(w, " %8s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// cellKey identifies one weak-scaling grid cell.
type cellKey struct {
	algo   Algo
	p      int
	perPE  int
	levels int
}

// WeakData holds the raw weak-scaling runs for Table 2 and Figures 7, 8
// and 12.
type WeakData struct {
	Opt   SuiteOptions
	Cells map[cellKey][]Result
}

// RunWeakScaling executes the weak-scaling grid for the given algorithms
// once and caches all repetitions.
func RunWeakScaling(opt SuiteOptions, algos []Algo) *WeakData {
	opt = opt.Defaults()
	d := &WeakData{Opt: opt, Cells: map[cellKey][]Result{}}
	for _, algo := range algos {
		for _, p := range opt.Ps {
			for _, perPE := range opt.PerPEs {
				for _, k := range opt.Levels {
					if opt.skip(p, perPE, k) {
						continue
					}
					spec := Spec{Algo: algo, P: p, PerPE: perPE, Levels: k, Kind: opt.Kind, Seed: opt.Seed}
					d.Cells[cellKey{algo, p, perPE, k}] = runReps(spec, opt.Reps, opt.Progress)
				}
			}
		}
	}
	return d
}

// bestMedian returns the best (smallest) median total over the level
// choices, the winning level, and whether any cell was run.
func (d *WeakData) bestMedian(algo Algo, p, perPE int) (int64, int, bool) {
	best, bestK, found := int64(0), 0, false
	for _, k := range d.Opt.Levels {
		rs, ok := d.Cells[cellKey{algo, p, perPE, k}]
		if !ok {
			continue
		}
		tot := make([]int64, len(rs))
		for i, r := range rs {
			tot[i] = r.TotalNS
		}
		med := stats.Median(tot)
		if !found || med < best {
			best, bestK, found = med, k, true
		}
	}
	return best, bestK, found
}

// Table2 prints the AMS-sort median wall-times with the best level
// choice per cell (paper Table 2, in milliseconds of virtual time).
func (d *WeakData) Table2(w io.Writer) {
	fmt.Fprintf(w, "Table 2: AMS-sort median wall-times of weak scaling experiments [ms, simulated]\n")
	fmt.Fprintf(w, "(best level choice per cell in parentheses)\n")
	fmt.Fprintf(w, "%-9s", "n/p")
	for _, p := range d.Opt.Ps {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("p=%d", p))
	}
	fmt.Fprintln(w)
	for _, perPE := range d.Opt.PerPEs {
		fmt.Fprintf(w, "%-9d", perPE)
		for _, p := range d.Opt.Ps {
			if med, k, ok := d.bestMedian(AMS, p, perPE); ok {
				fmt.Fprintf(w, " %10.3f (%d)", float64(med)/1e6, k)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig7 prints the slowdown of RLM-sort relative to AMS-sort, both at
// their best level choice (paper Figure 7).
func (d *WeakData) Fig7(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: slowdown of RLM-sort compared to AMS-sort (best level choice each)\n")
	fmt.Fprintf(w, "%-9s", "n/p")
	for _, p := range d.Opt.Ps {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("p=%d", p))
	}
	fmt.Fprintln(w)
	for _, perPE := range d.Opt.PerPEs {
		fmt.Fprintf(w, "%-9d", perPE)
		for _, p := range d.Opt.Ps {
			ams, _, ok1 := d.bestMedian(AMS, p, perPE)
			rlm, _, ok2 := d.bestMedian(RLM, p, perPE)
			if ok1 && ok2 {
				fmt.Fprintf(w, " %9.2f", float64(rlm)/float64(ams))
			} else {
				fmt.Fprintf(w, " %9s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig8 prints the weak-scaling phase breakdown of AMS-sort per level
// count (paper Figure 8): for every (n/p, p, k) the median total and the
// phase shares.
func (d *WeakData) Fig8(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: AMS-sort weak scaling phase breakdown [ms, simulated]\n")
	fmt.Fprintf(w, "%-9s %-7s %-2s %10s %10s %10s %10s %10s\n",
		"n/p", "p", "k", "total", "delivery", "buckets", "splitters", "localsort")
	for _, perPE := range d.Opt.PerPEs {
		for _, p := range d.Opt.Ps {
			for _, k := range d.Opt.Levels {
				rs, ok := d.Cells[cellKey{AMS, p, perPE, k}]
				if !ok {
					continue
				}
				tot := make([]int64, len(rs))
				var ph [core.NumPhases][]int64
				for i, r := range rs {
					tot[i] = r.TotalNS
					for j := 0; j < int(core.NumPhases); j++ {
						ph[j] = append(ph[j], r.PhaseNS[j])
					}
				}
				ms := func(v int64) float64 { return float64(v) / 1e6 }
				fmt.Fprintf(w, "%-9d %-7d %-2d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
					perPE, p, k, ms(stats.Median(tot)),
					ms(stats.Median(ph[core.PhaseDataDelivery])),
					ms(stats.Median(ph[core.PhaseBucketProcessing])),
					ms(stats.Median(ph[core.PhaseSplitterSelection])),
					ms(stats.Median(ph[core.PhaseLocalSort])))
			}
		}
	}
}

// Fig12 prints the distribution (five-number summary) of AMS-sort
// wall-times per (p, n/p) at the best level choice (paper Figure 12).
func (d *WeakData) Fig12(w io.Writer) {
	fmt.Fprintf(w, "Figure 12: distribution of AMS-sort wall-times [ms, simulated]\n")
	fmt.Fprintf(w, "%-9s %-7s %-2s %10s %10s %10s %10s %10s\n",
		"n/p", "p", "k", "min", "q1", "median", "q3", "max")
	for _, perPE := range d.Opt.PerPEs {
		for _, p := range d.Opt.Ps {
			_, bestK, ok := d.bestMedian(AMS, p, perPE)
			if !ok {
				continue
			}
			rs := d.Cells[cellKey{AMS, p, perPE, bestK}]
			tot := make([]int64, len(rs))
			for i, r := range rs {
				tot[i] = r.TotalNS
			}
			s := stats.Summarize(tot)
			ms := func(v int64) float64 { return float64(v) / 1e6 }
			fmt.Fprintf(w, "%-9d %-7d %-2d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				perPE, p, bestK, ms(s.Min), ms(s.Q1), ms(s.Median), ms(s.Q3), ms(s.Max))
		}
	}
}

// Fig10 prints the maximum output imbalance against samples per PE a·b
// for overpartitioning factors b ∈ {1, 8, 16} (paper Figure 10,
// Appendix E), at single-level AMS-sort.
func Fig10(w io.Writer, p, perPE, reps int, seed uint64, progress io.Writer) {
	fmt.Fprintf(w, "Figure 10: maximum imbalance among groups vs samples per PE (p=%d, n/p=%d)\n", p, perPE)
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "a*b", "b=1", "b=8", "b=16")
	for ab := 4; ab <= 2048; ab *= 2 {
		fmt.Fprintf(w, "%-8d", ab)
		for _, b := range []int{1, 8, 16} {
			if ab < b {
				fmt.Fprintf(w, " %12s", "-")
				continue
			}
			spec := Spec{Algo: AMS, P: p, PerPE: perPE, Levels: 1, Seed: seed,
				Oversampling: float64(ab) / float64(b), Overpartition: b}
			rs := runReps(spec, reps, progress)
			imb := make([]float64, len(rs))
			for i, r := range rs {
				imb[i] = r.OutImbalance - 1
			}
			fmt.Fprintf(w, " %12.4f", stats.MedianF(imb))
		}
		fmt.Fprintln(w)
	}
}

// Fig11 prints the total wall-time and the sampling (splitter selection)
// time against samples per PE a·b for oversampling factors a ∈ {1, 8,
// 16} (paper Figure 11), at single-level AMS-sort.
func Fig11(w io.Writer, p, perPE, reps int, seed uint64, progress io.Writer) {
	fmt.Fprintf(w, "Figure 11: AMS-sort wall-time vs samples per PE (p=%d, n/p=%d) [ms, simulated]\n", p, perPE)
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %10s %10s\n",
		"a*b", "tot a=1", "tot a=8", "tot a=16", "smp a=1", "smp a=8", "smp a=16")
	for ab := 4; ab <= 2048; ab *= 2 {
		totals := make([]string, 3)
		samples := make([]string, 3)
		for i, a := range []int{1, 8, 16} {
			if ab < a || ab/a < 1 {
				totals[i], samples[i] = "-", "-"
				continue
			}
			spec := Spec{Algo: AMS, P: p, PerPE: perPE, Levels: 1, Seed: seed,
				Oversampling: float64(a), Overpartition: ab / a}
			rs := runReps(spec, reps, progress)
			tot := make([]int64, len(rs))
			smp := make([]int64, len(rs))
			for j, r := range rs {
				tot[j] = r.TotalNS
				smp[j] = r.PhaseNS[core.PhaseSplitterSelection]
			}
			totals[i] = fmt.Sprintf("%.3f", float64(stats.Median(tot))/1e6)
			samples[i] = fmt.Sprintf("%.3f", float64(stats.Median(smp))/1e6)
		}
		fmt.Fprintf(w, "%-8d %10s %10s %10s %10s %10s %10s\n",
			ab, totals[0], totals[1], totals[2], samples[0], samples[1], samples[2])
	}
}

// Compare prints the §7.3 comparison: AMS-sort (best level) against the
// single-level and log-p-passes baselines across the (p, n/p) grid. The
// paper's claim is two-sided: single-level algorithms (MP-sort, GV) do
// not scale for small inputs, while algorithms that move the data
// Θ(log p) times (bitonic, quicksort) only survive at very small n/p.
func Compare(w io.Writer, opt SuiteOptions) {
	opt = opt.Defaults()
	fmt.Fprintf(w, "§7.3 comparison [ms, simulated; slowdown vs AMS in parentheses]\n")
	fmt.Fprintf(w, "%-9s %-7s %14s %16s %16s %16s %16s %16s\n",
		"n/p", "p", "AMS (best k)", "MP-sort", "GV-sample-sort", "bitonic", "histogram", "hc-quicksort")
	for _, perPE := range opt.PerPEs {
		for _, p := range opt.Ps {
			if opt.skip(p, perPE, 1) {
				// Single-level baselines need the p² message budget.
				fmt.Fprintf(w, "%-9d %-7d %14s (single-level baselines skipped)\n", perPE, p, "-")
				continue
			}
			var amsBest int64
			var bestK int
			for _, k := range opt.Levels {
				spec := Spec{Algo: AMS, P: p, PerPE: perPE, Levels: k, Seed: opt.Seed, Kind: opt.Kind}
				rs := runReps(spec, opt.Reps, opt.Progress)
				tot := make([]int64, len(rs))
				for i, r := range rs {
					tot[i] = r.TotalNS
				}
				if med := stats.Median(tot); amsBest == 0 || med < amsBest {
					amsBest, bestK = med, k
				}
			}
			fmt.Fprintf(w, "%-9d %-7d %10.3f (%d)", perPE, p, float64(amsBest)/1e6, bestK)
			for _, algo := range []Algo{MP, GV, Bitonic, Hist, HCQ} {
				spec := Spec{Algo: algo, P: p, PerPE: perPE, Levels: 1, Seed: opt.Seed, Kind: opt.Kind}
				rs := runReps(spec, opt.Reps, opt.Progress)
				tot := make([]int64, len(rs))
				for i, r := range rs {
					tot[i] = r.TotalNS
				}
				med := stats.Median(tot)
				fmt.Fprintf(w, " %9.3f (%4.1fx)", float64(med)/1e6, float64(med)/float64(amsBest))
			}
			fmt.Fprintln(w)
		}
	}
}

// DeliveryAblation prints time and worst-PE receive counts for each
// delivery strategy (§4.3 ablation) under 2-level AMS-sort.
func DeliveryAblation(w io.Writer, p, perPE, reps int, seed uint64, progress io.Writer) {
	fmt.Fprintf(w, "Delivery ablation: 2-level AMS-sort, p=%d, n/p=%d\n", p, perPE)
	fmt.Fprintf(w, "%-22s %-14s %12s %14s\n", "strategy", "input", "total [ms]", "max msgs recv")
	for _, kind := range []workload.Kind{workload.Uniform, workload.Skewed} {
		for _, strat := range []delivery.Strategy{delivery.Simple, delivery.Randomized,
			delivery.RandomizedAdvanced, delivery.Deterministic} {
			spec := Spec{Algo: AMS, P: p, PerPE: perPE, Levels: 2, Seed: seed, Kind: kind,
				Delivery: delivery.Options{Strategy: strat}}
			rs := runReps(spec, reps, progress)
			tot := make([]int64, len(rs))
			msgs := make([]int64, len(rs))
			for i, r := range rs {
				tot[i] = r.TotalNS
				msgs[i] = r.MaxMsgsRecv
			}
			fmt.Fprintf(w, "%-22v %-14v %12.3f %14d\n",
				strat, kind, float64(stats.Median(tot))/1e6, stats.Median(msgs))
		}
	}
}

// AlltoallAblation prints the 1-factor vs direct exchange comparison
// (§7.1) under single-level AMS-sort, where the exchange dominates.
func AlltoallAblation(w io.Writer, ps []int, perPE, reps int, seed uint64, progress io.Writer) {
	if ps == nil {
		ps = []int{128, 512, 2048}
	}
	fmt.Fprintf(w, "All-to-all ablation: 1-level AMS-sort, n/p=%d [ms, simulated]\n", perPE)
	fmt.Fprintf(w, "%-7s %12s %12s\n", "p", "1-factor", "direct")
	for _, p := range ps {
		var meds [2]float64
		for i, exch := range []delivery.Exchange{delivery.OneFactor, delivery.Direct} {
			spec := Spec{Algo: AMS, P: p, PerPE: perPE, Levels: 1, Seed: seed,
				Delivery: delivery.Options{Exchange: exch}}
			rs := runReps(spec, reps, progress)
			tot := make([]int64, len(rs))
			for j, r := range rs {
				tot[j] = r.TotalNS
			}
			meds[i] = float64(stats.Median(tot)) / 1e6
		}
		fmt.Fprintf(w, "%-7d %12.3f %12.3f\n", p, meds[0], meds[1])
	}
}
