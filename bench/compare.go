package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// exactCounts are per-layer counts that must repeat exactly between two
// sets of runs of one commit; -compare lists them beside the timings.
var exactCounts = []string{"netcomm.frames_per_op", "netcomm.writev_calls_per_op", "wire.allocs_per_frame", "delivery.msgs_per_rank"}

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Repeats) == 0 {
		return nil, fmt.Errorf("%s: no repeats", path)
	}
	return &f, nil
}

// series collects one metric's value on one workload across a file's
// repeats, and the spread between them as a share of their median.
func series(f *resultFile, workload, metric string, perLayer bool) (vals []float64, spread float64) {
	for _, rep := range f.Repeats {
		set := rep.Workloads[workload].EndToEnd
		if perLayer {
			set = rep.Workloads[workload].PerLayer
		}
		if mv, ok := set[metric]; ok {
			vals = append(vals, mv.Value)
		}
	}
	if med := median(vals); len(vals) > 1 && med != 0 {
		spread = (slices.Max(vals) - slices.Min(vals)) / med
	}
	return vals, spread
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change and the metric's bound, and a verdict: regressed or
// improved when the median moved by more than the bound, within-bound
// otherwise, and unresolved when the repeats inside either file spread
// wider than the bound (then no verdict can be trusted). It returns the
// exit status: 1 on any regressed, 2 when the files cannot be compared.
func compareFiles(oldPath, newPath string) int {
	oldF, err := loadResult(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newF, err := loadResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(oldF, newF)
}

func compareResults(oldF, newF *resultFile) int {
	if oldF.Env.NProc != newF.Env.NProc {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare across machines: nproc %d vs %d\n", oldF.Env.NProc, newF.Env.NProc)
		return 2
	}
	if oldF.Env.Noisy || newF.Env.Noisy {
		fmt.Println("warning: a run was marked noisy (load average above half of nproc when it started)")
	}
	fmt.Printf("old: commit %s, %d repeat(s); new: commit %s, %d repeat(s)\n", oldF.Env.Commit, len(oldF.Repeats), newF.Env.Commit, len(newF.Repeats))
	regressed, unresolved := 0, 0
	for _, w := range workloadNames {
		fmt.Printf("== %s\n", w)
		for _, m := range endToEnd {
			oldVals, oldSpread := series(oldF, w, m.name, false)
			newVals, newSpread := series(newF, w, m.name, false)
			if len(oldVals) == 0 || len(newVals) == 0 {
				fmt.Printf("  %-18s missing in one file\n", m.name)
				unresolved++
				continue
			}
			oldMed, newMed := median(oldVals), median(newVals)
			worse := (newMed - oldMed) / oldMed // > 0: got worse
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "within-bound"
			switch {
			case oldSpread > m.bound || newSpread > m.bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% inside the files)", 100*oldSpread, 100*newSpread)
				unresolved++
			case worse > m.bound:
				verdict = "regressed"
				regressed++
			case worse < -m.bound:
				verdict = "improved"
			}
			fmt.Printf("  %-18s %12.6g -> %12.6g %-5s %+7.2f%% worse (bound %.0f%%)  %s\n", m.name, oldMed, newMed, m.unit, 100*worse, 100*m.bound, verdict)
		}
		for _, f := range []*resultFile{oldF, newF} {
			for _, rep := range f.Repeats {
				if rep.Workloads[w].Failed > 0 {
					fmt.Printf("  failed_ratio > 0 (%d of %d ops): regressed\n", rep.Workloads[w].Failed, rep.Workloads[w].Attempted)
					regressed++
				}
			}
		}
		for _, name := range exactCounts {
			oldVals, _ := series(oldF, w, name, true)
			newVals, _ := series(newF, w, name, true)
			if all := append(oldVals, newVals...); len(all) > 0 {
				same := "identical"
				if slices.Min(all) != slices.Max(all) {
					same = "DIFFERS"
				}
				fmt.Printf("  %-30s %v -> %v  %s\n", name, oldVals, newVals, same)
			}
		}
	}
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
