// Command tracesort runs one fully traced AMS-sort and exports the
// merged multi-rank observability trace — nested per-level phase spans,
// communication counters, and per-peer traffic — as Chrome trace-event
// JSON (load in chrome://tracing or Perfetto) plus a plain-text report.
// It works on every backend: the simulator (virtual timestamps), the
// native goroutine cluster (wall clock), and a real multi-process TCP
// cluster on loopback (wall clock, ranks clock-aligned at gather).
//
//	tracesort -p 4 -n 10000 -levels 2                  # native, trace.json + report on stdout
//	tracesort -backend sim -p 64 -o sim.json           # virtual-time trace of 64 simulated PEs
//	tracesort -backend tcp -p 4 -o tcp.json            # one process per rank, merged at rank 0
package main

import (
	"flag"
	"fmt"
	"os"

	"pmsort/internal/expt"
)

func main() {
	// A tracesort process doubles as one rank of the TCP cluster the tcp
	// backend launches (one re-execution per rank).
	expt.MaybeRunTCPChild()
	var (
		p       = flag.Int("p", 4, "number of PEs / ranks")
		n       = flag.Int("n", 10000, "elements per PE")
		levels  = flag.Int("levels", 2, "recursion levels")
		backend = flag.String("backend", "native", "sim|native|tcp")
		out     = flag.String("o", "trace.json", "Chrome trace JSON output path ('' = none)")
		report  = flag.String("report", "-", "plain-text report path ('-' = stdout, '' = none)")
	)
	flag.Parse()

	spec := expt.Spec{Algo: expt.AMS, P: *p, PerPE: *n, Levels: *levels, Seed: 7, Keyed: true}
	if err := expt.TraceRun(spec, *backend, *out, *report, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracesort:", err)
		os.Exit(1)
	}
}
