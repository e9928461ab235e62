package main

import (
	"encoding/json"
	"fmt"
	"math"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload (traced or not) reports.
type runResult struct {
	workload  string
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	samples   int // timed ops behind the percentiles
	trace     bool
	noProbes  bool // a traced run without the layer probes (-probes=false)
}

func newRunResult(workload string, trace bool) *runResult {
	return &runResult{workload: workload, trace: trace, values: map[string]float64{}}
}

func (r *runResult) set(name string, v float64) { r.values[name] = v }

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// defs returns the metric set the run reports: every end-to-end metric
// with tracing off, every per-layer metric with tracing on.
func (r *runResult) defs() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// expected reports whether the run should have measured m.
func (r *runResult) expected(m metricDef) bool {
	switch {
	case !r.trace:
		return true
	case m.source == "C":
		return !r.noProbes
	}
	return r.workload != wlProbes && m.applies(r.workload)
}

// check verifies the run measured every metric that applies to its
// workload, with a finite value. A missing one is a bug in the bench.
func (r *runResult) check() error {
	for _, m := range r.defs() {
		v, ok := r.values[m.name]
		if r.expected(m) && !ok {
			return fmt.Errorf("metric %s was not measured on %s", m.name, r.workload)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v on %s", m.name, v, r.workload)
		}
	}
	return nil
}

// print writes every metric by name with its unit, one per line.
func (r *runResult) print() {
	kind := "end-to-end, tracing off"
	if r.trace {
		kind = "per-layer: op returns, traced run, layer probes"
	}
	fmt.Printf("== %s (%s): %d ops attempted, %d failed, %d timed samples\n", r.workload, kind, r.attempted, r.failed, r.samples)
	for _, m := range r.defs() {
		v, ok := r.values[m.name]
		if !ok {
			if r.workload != wlProbes && m.source != "C" {
				fmt.Printf("  %-40s n/a (%s)\n", m.name, naReason(m, r.workload))
			}
			continue
		}
		fmt.Printf("  %-40s %14.6g %s\n", m.name, v, m.unit)
	}
	if !r.trace {
		fmt.Printf("  %-40s %14.6g ratio\n", "failed_ratio", r.failedRatio())
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func (r *runResult) failedRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// contractLine is the driver's result object; it must be the last line
// of standard output. Metrics that do not apply to the workload carry 0.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) contract() contractLine {
	cl := contractLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range r.defs() {
		cl.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
	return cl
}

func (r *runResult) printContract() error {
	line, err := json.Marshal(r.contract())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
