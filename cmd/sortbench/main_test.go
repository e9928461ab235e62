package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentIsAUsageError pins the fix for a silent gotcha:
// a mistyped -experiment used to print nothing and exit 0.
func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "tabel2"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", stdout.String())
	}
	for _, want := range []string{`"tabel2"`, "table2", "backends", "torture"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not mention %s: %q", want, stderr.String())
		}
	}
	if code := run([]string{"-ps", "64,x"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad -ps list: exit code %d, want 2", code)
	}
}

// TestExperiments runs the two cheapest experiments end to end: a
// simulated table, and the backend comparison with its native and TCP
// loopback columns.
func TestExperiments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-experiment", "table1"}, []string{"Table 1"}},
		{[]string{"-experiment", "backends", "-quick", "-ntotal", "3000", "-reps", "1", "-kernels", "keyed"},
			[]string{"tcp-wall(ms)", "native  L0", "tcp     L0"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(tc.args, "-quiet"), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code %d: %s", tc.args, code, stderr.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: no %q in output:\n%s", tc.args, want, stdout.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "backends", "-kernels", "simd", "-quiet"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown kernel: exit code %d, want 2", code)
	}
}

// TestTraceOverTCP drives `sortbench -trace` on the TCP loopback mesh:
// the run must validate, and the exported Chrome trace must be valid
// JSON with spans and counters from both ranks.
func TestTraceOverTCP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-trace", path, "-tracebackend", "tcp", "-tracep", "2", "-ntotal", "4000", "-quiet"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans, counters := map[int]int{}, map[int]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans[e.Pid]++
		case "C":
			counters[e.Pid]++
		}
	}
	for rank := 0; rank < 2; rank++ {
		if spans[rank] == 0 || counters[rank] == 0 {
			t.Errorf("rank %d: %d spans, %d counters in the trace", rank, spans[rank], counters[rank])
		}
	}
	if len(spans) != 2 {
		t.Errorf("trace covers ranks %v, want exactly 0 and 1", spans)
	}

	if code := run([]string{"-trace", path, "-tracebackend", "mpi", "-quiet"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown -tracebackend: exit code %d, want 1", code)
	}
}
