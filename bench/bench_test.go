package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pmsort/internal/analysis/analysistest"
	"pmsort/internal/analysis/vetsuite"
)

// The tests drive the real program: the test binary re-executes itself
// as the bench (TestMain hands over to main when envChild is set), so
// flags, child processes, exit statuses and the printed lines are the
// ones a user or the driver sees. Everything runs at -scale tiny and with
// a seed other than the default, so nothing can hard-code seed 42.
const (
	envChild = "PMSORT_BENCH_TEST_CHILD"
	testSeed = "7"
)

func TestMain(m *testing.M) {
	if os.Getenv(envChild) != "" {
		main() // exits
	}
	os.Exit(m.Run())
}

// bench runs the program with args and returns its stdout and exit code.
func bench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), envChild+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running bench %v: %v", args, err)
	}
	return out.String(), code
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the metric table in metrics.go must say the same.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q does not match the table", i, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, table has %d", len(b.EndToEnd), len(endToEnd))
	}
	haveSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %s: bound %v or unit %q out of range", m.Name, m.Bound, m.Unit)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, table has %d (cap 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
		if d.layer == "" || d.moves == "" || !strings.Contains("ABC", d.source) {
			t.Errorf("per_layer %s: layer, source or moves missing in the table", d.name)
		}
	}
}

var (
	metricLine = regexp.MustCompile(`^  (\S+)\s+(\S+) (\S+)$`)
	naLine     = regexp.MustCompile(`^  (\S+)\s+n/a \(`)
)

// parseSections splits the program's output into its "== workload (kind)"
// sections and returns, per section, every printed metric line.
func parseSections(t *testing.T, out string) map[string]map[string][]string {
	t.Helper()
	sections := map[string]map[string][]string{}
	var cur map[string][]string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			w, kind, _ := strings.Cut(rest, " (")
			key := w + "/e2e"
			if strings.HasPrefix(kind, "per-layer") {
				key = w + "/layer"
			}
			if sections[key] != nil {
				t.Errorf("section %s printed twice", key)
			}
			cur = map[string][]string{}
			sections[key] = cur
			continue
		}
		if cur == nil {
			continue
		}
		if m := naLine.FindStringSubmatch(line); m != nil {
			cur[m[1]] = append(cur[m[1]], "n/a")
		} else if m := metricLine.FindStringSubmatch(line); m != nil {
			cur[m[1]] = append(cur[m[1]], m[2]+" "+m[3])
		}
	}
	return sections
}

// wantMetric asserts name was printed exactly once in the section, with a
// finite value and the table's unit.
func wantMetric(t *testing.T, section string, lines map[string][]string, m metricDef) {
	t.Helper()
	got := lines[m.name]
	if len(got) != 1 {
		t.Errorf("%s: %s printed %d times, want once", section, m.name, len(got))
		return
	}
	val, unit, _ := strings.Cut(got[0], " ")
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("%s: %s = %q is not a finite number", section, m.name, val)
	}
	if unit != m.unit {
		t.Errorf("%s: %s printed with unit %q, want %q", section, m.name, unit, m.unit)
	}
}

// One command runs everything: every metric of BENCHMARK.json is printed
// exactly once per workload it applies to (probe metrics once, in the
// probes' section), result.json carries them, the trace artefacts exist.
func TestTinyRunPrintsEveryMetricOnce(t *testing.T) {
	dir := t.TempDir()
	out, code := bench(t, "-scale", "tiny", "-seed", testSeed, "-out", dir)
	if code != 0 {
		t.Fatalf("exit status %d\n%s", code, out)
	}
	sections := parseSections(t, out)
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			wantMetric(t, w+"/e2e", sections[w+"/e2e"], m)
		}
		if got := sections[w+"/e2e"]["failed_ratio"]; !slices.Equal(got, []string{"0 ratio"}) {
			t.Errorf("%s: failed_ratio printed as %v", w, got)
		}
		for _, m := range perLayer {
			switch {
			case m.source == "C":
				if w == workloadNames[0] {
					wantMetric(t, "probes", sections[wlProbes+"/layer"], m)
				}
			case m.applies(w):
				wantMetric(t, w+"/layer", sections[w+"/layer"], m)
			default:
				if got := sections[w+"/layer"][m.name]; !slices.Equal(got, []string{"n/a"}) {
					t.Errorf("%s: inapplicable %s printed as %v, want one n/a line", w, m.name, got)
				}
			}
		}
		for _, f := range []string{"trace-" + w + ".json", "layers-" + w + ".json"} {
			raw, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil || !json.Valid(raw) {
				t.Errorf("artefact %s: err %v, valid JSON %v", f, err, json.Valid(raw))
			}
		}
	}
	res, err := loadResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 7 || res.Env.NProc < 1 || res.Env.GoVersion == "" || !strings.Contains(res.Env.Network, "loopback") {
		t.Errorf("result.json header: %+v", res)
	}
	for _, w := range workloadNames {
		wr := res.Repeats[0].Workloads[w]
		for _, m := range endToEnd {
			if mv, ok := wr.EndToEnd[m.name]; !ok || mv.Unit != m.unit || mv.Value <= 0 {
				t.Errorf("result.json %s: %s = %+v (present %v)", w, m.name, mv, ok)
			}
		}
		for _, m := range perLayer {
			_, have := wr.PerLayer[m.name]
			_, na := wr.NA[m.name]
			if have == na {
				t.Errorf("result.json %s: %s measured=%v not_applicable=%v, want exactly one", w, m.name, have, na)
			}
		}
	}
	if compareResults(res, res) != 0 {
		t.Error("a result file does not compare clean against itself")
	}
}

// The driver's call: double-dash flags, one workload, traced, probes
// included; the last line is the result object with every per-layer name.
func TestDriverContractLine(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, tc := range []struct {
		trace string
		names []string
	}{
		{"0", func() (n []string) {
			for _, m := range b.EndToEnd {
				n = append(n, m.Name)
			}
			return
		}()},
		{"1", func() (n []string) {
			for _, m := range b.PerLayer {
				n = append(n, m.Name)
			}
			return
		}()},
	} {
		out, code := bench(t, "--workload", wlSvcTinyOpen, "--seed", "9", "--seconds", "1", "--trace", tc.trace, "-scale", "tiny", "-out", t.TempDir())
		if code != 0 {
			t.Fatalf("trace %s: exit status %d\n%s", tc.trace, code, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", tc.trace, err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace %s: result keys %v", tc.trace, keys)
		}
		var cl contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cl); err != nil {
			t.Fatal(err)
		}
		if !cl.Correct || cl.Attempted < 1 || cl.Failed != 0 || len(cl.Metrics) != len(tc.names) {
			t.Errorf("trace %s: %+v with %d metrics, want %d", tc.trace, cl, len(cl.Metrics), len(tc.names))
		}
		for _, n := range tc.names {
			if _, ok := cl.Metrics[n]; !ok {
				t.Errorf("trace %s: metric %s missing from the result line", tc.trace, n)
			}
		}
	}
}

// Planted bugs: each must drive failed above 0 and the exit status
// non-zero, or the validation is not doing its job.
func TestPlantedBugsFailTheRun(t *testing.T) {
	for _, tc := range []struct{ workload, plant string }{
		{wlBulkKeyedTCP, "swap"},
		{wlBulkRLMNative, "drop"},
		{wlMultilevelDup, "swap"},
		{wlSvcTinyClosed, "failjob"},
		{wlSvcTinyOpen, "failjob"},
	} {
		out, code := bench(t, "-workload", tc.workload, "-plant", tc.plant, "-scale", "tiny", "-seed", testSeed, "-out", t.TempDir())
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var cl contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cl); err != nil {
			t.Fatalf("%s/%s: no result line: %v\n%s", tc.workload, tc.plant, err, out)
		}
		if code == 0 || cl.Correct || cl.Failed == 0 || !strings.Contains(out, "FAILED") {
			t.Errorf("%s with planted %q: exit %d, correct %v, failed %d of %d: the bug went unnoticed",
				tc.workload, tc.plant, code, cl.Correct, cl.Failed, cl.Attempted)
		}
	}
}

func fakeResult(nproc int, p50 ...float64) *resultFile {
	f := &resultFile{Env: environment{NProc: nproc}}
	for _, v := range p50 {
		set := repeatSet{Workloads: map[string]workloadResult{}}
		for _, w := range workloadNames {
			e2e := map[string]metricValue{}
			for _, m := range endToEnd {
				e2e[m.name] = metricValue{Value: v, Unit: m.unit}
			}
			set.Workloads[w] = workloadResult{Attempted: 10, EndToEnd: e2e}
		}
		f.Repeats = append(f.Repeats, set)
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	base := fakeResult(2, 100, 101)
	for _, tc := range []struct {
		name string
		new  *resultFile
		want int
	}{
		{"same", fakeResult(2, 100.5, 100), 0},
		{"within the tightest bound", fakeResult(2, 101, 102), 0},
		// Every metric moves by 30%: the lower-is-better ones regress.
		{"regressed", fakeResult(2, 130, 131), 1},
		// Spread inside the new file is wider than any bound: no verdict.
		{"unresolved", fakeResult(2, 100, 160), 0},
		{"other machine", fakeResult(8, 100, 101), 2},
	} {
		if got := compareResults(base, tc.new); got != tc.want {
			t.Errorf("%s: exit status %d, want %d", tc.name, got, tc.want)
		}
	}
	failing := fakeResult(2, 100, 101)
	w := failing.Repeats[0].Workloads[wlSvcTinyOpen]
	w.Failed = 1
	failing.Repeats[0].Workloads[wlSvcTinyOpen] = w
	if got := compareResults(base, failing); got != 1 {
		t.Errorf("failed ops: exit status %d, want 1", got)
	}
}

// The repo's vet suite (scripts/vet.sh) walks one module and skips nested
// ones, and this benchmark is a module of its own. So vet a copy of the
// repository in which bench/ is an ordinary package of the root module.
func TestVetSuiteClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	root := t.TempDir()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel("..", path)
		if d.IsDir() {
			if n := d.Name(); rel != "." && (strings.HasPrefix(n, ".") || n == "testdata" || n == "tools" || n == "out") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(root, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(root, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	findings, out, err := analysistest.RunFindings(root, vetsuite.Suite(), "./bench/...")
	if err != nil {
		t.Fatalf("loading the copy: %v", err)
	}
	if len(findings) > 0 {
		t.Errorf("pmsortvet found %d issue(s) in bench/:\n%s", len(findings), out)
	}
}
