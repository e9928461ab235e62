package expt

import (
	"fmt"
	"io"
	"os"

	"pmsort/internal/comm"
	"pmsort/internal/obs"
)

// writeTraceFiles validates the merged trace and writes the Chrome
// trace-event JSON and/or the plain-text report (empty paths skipped).
func writeTraceFiles(trace *obs.Trace, tracePath, reportPath string) error {
	if err := trace.Validate(); err != nil {
		return fmt.Errorf("trace: invalid merged trace: %w", err)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if reportPath != "" {
		if reportPath == "-" {
			return trace.WriteReport(os.Stdout)
		}
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		if err := trace.WriteReport(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// TraceRun executes one fully traced, validated sort on the chosen
// backend (see BackendNames) and writes the merged multi-rank trace: Chrome
// trace-event JSON (chrome://tracing / Perfetto) to tracePath and/or the
// plain-text span/counter report to reportPath ("-" for stdout; empty
// paths are skipped). Rank 0 gathers the per-rank snapshots (clock-offset
// aligned where ranks keep their own clocks); the merged trace is
// schema-validated (every rank present exactly once, spans closed,
// nested, and per-rank monotone) before anything is written.
func TraceRun(spec Spec, backend, tracePath, reportPath string, progress io.Writer) error {
	if tracePath == "" && reportPath == "" {
		return fmt.Errorf("trace: need a -trace and/or -report output path")
	}
	if progress != nil {
		fmt.Fprintf(progress, "# trace backend=%s algo=%v p=%d n/p=%d k=%d\n",
			backend, spec.Algo, spec.P, spec.PerPE, spec.Levels)
	}
	var trace *obs.Trace
	err := onBackend(backend, spec.P, backendOpts{obs: true}, func(c comm.Communicator) {
		RunOn(c, spec)
		if t := obs.Gather(c, obs.From(c)); t != nil {
			trace = t // rank 0 only
		}
	})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return writeTraceFiles(trace, tracePath, reportPath)
}
