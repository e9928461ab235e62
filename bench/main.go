// Command bench is the repository's one measuring stick: five named
// workloads measured end to end with tracing off, a shorter traced run of
// each plus a set of layer probes for the per-layer numbers, every output
// validated. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
// From the repository root:
//
//	go -C bench run .                                   all workloads, bench/out/result.json
//	go -C bench run . -workload bulk_keyed_tcp -trace 0 one workload, end-to-end metrics
//	go -C bench run . -workload svc_tiny_open -trace 1  its per-layer metrics
//	go -C bench run . -compare old.json new.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: long enough that the
// slowest workload (multilevel_dup_tcp, ~0.11 s per op) collects about
// 170 timed ops, short enough that the driver's 114 runs fit its budget.
const defaultSeconds = 20

func main() {
	var o runOpts
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (one of the five, or \"probes\"); default: all, each in a child process")
	flag.Uint64Var(&o.seed, "seed", 42, "seed all inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds one run measures")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 the per-layer metrics (untraced ops, traced ops, probes)")
	flag.StringVar(&o.scale, "scale", "full", "full, or tiny: n=2^12, a handful of ops, probes at 2 repetitions (the self-test's size)")
	flag.BoolVar(&o.probes, "probes", true, "with -trace 1: also run the layer probes")
	flag.StringVar(&o.plant, "plant", "", "self-test: plant a bug the validation must catch (swap, drop, failjob)")
	flag.StringVar(&o.outDir, "out", "out", "directory for result.json and the trace artefacts")
	repeats := flag.Int("repeats", 1, "without -workload: run the whole set this many times (-compare judges the spread)")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	flag.Parse()
	o.trace = *trace != 0

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case o.scale != "full" && o.scale != "tiny":
		fatalf("unknown -scale %q", o.scale)
	case o.workload != "":
		os.Exit(runOne(o))
	default:
		os.Exit(runAll(o, *repeats))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process and ends with the driver's
// result line. The exit status is non-zero when any op failed.
func runOne(o runOpts) int {
	readEnvironment().print()
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print()
	if err := res.check(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := res.printContract(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if res.failed > 0 || res.attempted == 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed\n", o.workload, res.failed, res.attempted)
		return 1
	}
	return 0
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Scale   string      `json:"scale"`
	Seconds float64     `json:"seconds"`
	Repeats []repeatSet `json:"repeats"`
}

// repeatSet is one complete set of runs.
type repeatSet struct {
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Why        string                 `json:"why"`
	WorkingSet string                 `json:"working_set"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer"`
	NA         map[string]string      `json:"not_applicable"`
}

// runAll runs every workload untraced, then traced, then the probes,
// each in a fresh child process so that set-up time, heap growth and the
// resident peak do not depend on the order, and writes result.json.
func runAll(o runOpts, repeats int) int {
	env := readEnvironment()
	env.print()
	file := resultFile{Env: env, Seed: o.seed, Scale: o.scale, Seconds: o.seconds}
	failedOps := false
	for rep := 0; rep < repeats; rep++ {
		set, err := runSet(o, env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, wr := range set.Workloads {
			failedOps = failedOps || wr.Failed > 0
		}
		file.Repeats = append(file.Repeats, set)
	}
	path := filepath.Join(o.outDir, "result.json")
	raw, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(o.outDir, 0o755); err == nil {
			err = os.WriteFile(path, raw, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d repeat(s))\n", path, repeats)
	if failedOps {
		fmt.Fprintln(os.Stderr, "bench: failed_ratio is above 0 on some workload")
		return 1
	}
	return 0
}

// runSet is one complete set of runs.
func runSet(o runOpts, env environment) (repeatSet, error) {
	set := repeatSet{Workloads: map[string]workloadResult{}}
	probes, err := runChild(o, wlProbes, true)
	if err != nil {
		return set, err
	}
	for _, w := range workloadNames {
		plain, err := runChild(o, w, false)
		if err != nil {
			return set, err
		}
		traced, err := runChild(o, w, true)
		if err != nil {
			return set, err
		}
		wr := workloadResult{
			Why: workloadWhy[w], WorkingSet: workingSet(w, env),
			Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed,
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics, NA: map[string]string{},
		}
		for _, m := range perLayer {
			switch {
			case m.source == "C":
				wr.PerLayer[m.name] = probes.Metrics[m.name]
			case !m.applies(w):
				delete(wr.PerLayer, m.name)
				wr.NA[m.name] = naReason(m, w)
			}
		}
		set.Workloads[w] = wr
	}
	return set, nil
}

// workingSet states a workload's data size next to the cache it sits in.
func workingSet(w string, env environment) string {
	if isServiceWorkload(w) {
		return fmt.Sprintf("32 KiB per job (4096 keys), in L2 (%s)", env.L2)
	}
	return fmt.Sprintf("8 MiB per op, in-cache against L3 (%s): no memory-bandwidth claim can rest on it", env.L3)
}

// runChild re-executes this binary for one workload, passes its output
// through, and returns the result line it ended with.
func runChild(o runOpts, workload string, trace bool) (*contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-trace", traceArg, "-probes=false",
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-scale", o.scale, "-out", o.outDir, "-plant", o.plant)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	last, err := passThrough(&out, os.Stdout)
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, traceArg, err)
	}
	var cl contractLine
	if jsonErr := json.Unmarshal(last, &cl); jsonErr != nil {
		return nil, fmt.Errorf("%s (trace %s): no result line (%v); child: %v", workload, traceArg, jsonErr, runErr)
	}
	// A child that measured but saw failed ops exits non-zero too; its
	// result still counts (failed_ratio is reported, and fails the run).
	return &cl, nil
}

// passThrough copies all lines but the last (the machine-readable result
// line) to w and returns the last.
func passThrough(r io.Reader, w io.Writer) ([]byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	var last []byte
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(w, "%s\n", last)
		}
		last = bytes.Clone(sc.Bytes())
	}
	return last, sc.Err()
}
