package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0..1) of vals by the nearest-rank
// rule on a sorted copy; 0 for an empty set.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the mean of the two middle values for even counts, so a
// two-repeat result file has a defined centre.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
