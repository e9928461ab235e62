package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/netcomm"
)

// startLocal brings up a p-rank loopback service in-process and returns
// its base URL plus a wait func that blocks until every rank's Serve has
// returned and reports the first error. hook, when non-nil, sees each
// rank's machine before serving starts (failure-injection handle).
func startLocal(t *testing.T, p int, opt Options, hook func(m *netcomm.Machine, rank int)) (string, func() error) {
	t.Helper()
	urlCh := make(chan string, 1)
	opt.Ready = func(u string) { urlCh <- u }
	errCh := make(chan error, 1)
	go func() {
		errCh <- netcomm.LocalCluster(p, 0, func(m *netcomm.Machine, rank int) error {
			if hook != nil {
				hook(m, rank)
			}
			var serveErr error
			_, runErr := m.Run(func(c comm.Communicator) {
				serveErr = Serve(context.Background(), c, opt)
			})
			if runErr != nil {
				return runErr
			}
			return serveErr
		})
	}()
	select {
	case u := <-urlCh:
		return u, func() error { return <-errCh }
	case err := <-errCh:
		t.Fatalf("cluster died before the service came up: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatalf("service did not come up")
	}
	return "", nil
}

func postJob(t *testing.T, url string, req JobRequest) (int, JobStatus, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decoding job status: %v (%s)", err, raw)
		}
	}
	return resp.StatusCode, st, strings.TrimSpace(string(raw))
}

func getJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding job %s: %v", id, err)
	}
	return st
}

func getMetrics(t *testing.T, url string) Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var met Metrics
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return met
}

func shutdown(t *testing.T, url string, wait func() error) {
	t.Helper()
	resp, err := http.Post(url+"/shutdown", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /shutdown: %v", err)
	}
	resp.Body.Close()
	if err := wait(); err != nil {
		t.Fatalf("service exited with: %v", err)
	}
}

// TestConcurrentJobsByteIdenticalToSequential pins the tag/epoch
// namespace contract: N jobs racing on one 4-rank mesh return output
// byte-identical to the same jobs run one at a time.
func TestConcurrentJobsByteIdenticalToSequential(t *testing.T) {
	url, wait := startLocal(t, 4, Options{MaxConcurrent: 8}, nil)

	kinds := []string{"uniform", "dup-heavy", "sorted"}
	algos := []string{"ams", "rlm", "gv"}
	const jobs = 12
	req := func(i int) JobRequest {
		return JobRequest{
			Algo: algos[i%len(algos)],
			Kind: kinds[i%len(kinds)],
			N:    2048,
			Seed: 100 + uint64(i),
			Wait: true,
		}
	}

	concurrent := make([][]uint64, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, st, body := postJob(t, url, req(i))
			if code != http.StatusOK || st.Status != StatusDone {
				t.Errorf("concurrent job %d: HTTP %d %q (%s)", i, code, st.Status, body)
				return
			}
			concurrent[i] = st.Keys
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := 0; i < jobs; i++ {
		code, st, body := postJob(t, url, req(i))
		if code != http.StatusOK || st.Status != StatusDone {
			t.Fatalf("sequential job %d: HTTP %d %q (%s)", i, code, st.Status, body)
		}
		if !slices.Equal(concurrent[i], st.Keys) {
			t.Fatalf("job %d: concurrent output differs from sequential (%d vs %d keys)",
				i, len(concurrent[i]), len(st.Keys))
		}
		if len(st.Keys) == 0 || !slices.IsSorted(st.Keys) {
			t.Fatalf("job %d: output missing or unsorted", i)
		}
	}

	met := getMetrics(t, url)
	if met.Jobs.Completed != 2*jobs || met.Jobs.Failed != 0 {
		t.Fatalf("metrics: completed=%d failed=%d, want %d/0", met.Jobs.Completed, met.Jobs.Failed, 2*jobs)
	}
	shutdown(t, url, wait)
}

// TestRawKeysRoundTrip submits explicit keys and expects exactly the
// sorted multiset back.
func TestRawKeysRoundTrip(t *testing.T) {
	url, wait := startLocal(t, 4, Options{}, nil)
	keys := []uint64{9, 3, 3, 18446744073709551615, 0, 7, 5, 5, 5, 1 << 53}
	code, st, body := postJob(t, url, JobRequest{Keys: keys, Wait: true})
	if code != http.StatusOK || st.Status != StatusDone {
		t.Fatalf("raw job: HTTP %d %q (%s)", code, st.Status, body)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(st.Keys, want) {
		t.Fatalf("raw job returned %v, want %v", st.Keys, want)
	}
	shutdown(t, url, wait)
}

// TestAdmissionControl pins the admission behavior: a job beyond the
// memory budget is rejected outright (413), a burst beyond the
// concurrency limit plus queue depth gets 429s, and every accepted job
// still completes correctly — admission pressure never corrupts output.
func TestAdmissionControl(t *testing.T) {
	url, wait := startLocal(t, 4, Options{
		MaxConcurrent: 1,
		MaxQueue:      2,
		MemBudget:     16 << 20, // fits one 2^19-element job (est ≈ 3 MiB), not a 40M one
	}, nil)

	// est(40M elements on 4 ranks) = 24·(10M+1) ≈ 240 MB >> 16 MiB.
	code, _, body := postJob(t, url, JobRequest{N: 40_000_000})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget job: HTTP %d (%s), want 413", code, body)
	}

	// Fire a burst; with one slot and two queue places, the rest must
	// bounce with 429 — never hang, never corrupt.
	const burst = 8
	type outcome struct {
		code int
		id   string
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, st, _ := postJob(t, url, JobRequest{N: 1 << 19, Seed: uint64(i)})
			outcomes[i] = outcome{code, st.ID}
		}(i)
	}
	wg.Wait()

	accepted, rejected := 0, 0
	for i, o := range outcomes {
		switch o.code {
		case http.StatusAccepted:
			accepted++
			deadline := time.Now().Add(60 * time.Second)
			for {
				st := getJob(t, url, o.id)
				if st.Status == StatusDone {
					if st.Count != st.N || st.Count != 1<<19 {
						t.Fatalf("job %s: count %d, want %d", o.id, st.Count, 1<<19)
					}
					break
				}
				if st.Status == StatusFailed {
					t.Fatalf("admitted job %s failed: %s", o.id, st.Error)
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s stuck in %q", o.id, st.Status)
				}
				time.Sleep(10 * time.Millisecond)
			}
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("burst job %d: unexpected HTTP %d", i, o.code)
		}
	}
	if rejected == 0 {
		t.Fatalf("burst of %d against 1 slot + 2 queue places produced no 429", burst)
	}
	met := getMetrics(t, url)
	if met.Jobs.Completed != int64(accepted) {
		t.Fatalf("metrics completed=%d, want %d", met.Jobs.Completed, accepted)
	}
	if met.Jobs.Rejected != int64(rejected)+1 { // +1 for the 413
		t.Fatalf("metrics rejected=%d, want %d", met.Jobs.Rejected, rejected+1)
	}
	shutdown(t, url, wait)
}

// TestDeadPeerFailsJobsNotServer kills one rank mid-flight and expects
// in-flight jobs to fail with an error while the coordinator keeps
// serving status, metrics, and (503) admission answers.
func TestDeadPeerFailsJobsNotServer(t *testing.T) {
	var mu sync.Mutex
	machines := make(map[int]*netcomm.Machine)
	url, wait := startLocal(t, 4, Options{MaxConcurrent: 8}, func(m *netcomm.Machine, rank int) {
		mu.Lock()
		machines[rank] = m
		mu.Unlock()
	})

	// Slow jobs so the kill lands mid-flight.
	var ids []string
	for i := 0; i < 4; i++ {
		code, st, body := postJob(t, url, JobRequest{N: 1 << 21, Seed: uint64(i)})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d (%s)", i, code, body)
		}
		ids = append(ids, st.ID)
	}

	mu.Lock()
	machines[3].Abort()
	mu.Unlock()

	// Every in-flight job must resolve — done if it beat the abort,
	// failed otherwise — and the coordinator must stay responsive.
	deadline := time.Now().Add(60 * time.Second)
	failed := 0
	for _, id := range ids {
		for {
			st := getJob(t, url, id)
			if st.Status == StatusDone {
				break
			}
			if st.Status == StatusFailed {
				failed++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %q after the peer died", id, st.Status)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if failed == 0 {
		t.Fatalf("no job observed the dead peer (all %d completed before the abort)", len(ids))
	}

	// The mesh is degraded: metrics still answer and say so, and new
	// submissions bounce with 503 instead of wedging.
	met := getMetrics(t, url)
	if met.Degraded == "" {
		t.Fatalf("metrics do not report the degraded mesh")
	}
	if met.Jobs.Failed != int64(failed) {
		t.Fatalf("metrics failed=%d, want %d", met.Jobs.Failed, failed)
	}
	code, _, body := postJob(t, url, JobRequest{N: 1024})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-failure submission: HTTP %d (%s), want 503", code, body)
	}

	// Shutdown still works; the cluster as a whole reports the transport
	// failure (the aborted rank and the poisoned workers), not a hang.
	resp, err := http.Post(url+"/shutdown", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /shutdown: %v", err)
	}
	resp.Body.Close()
	if err := wait(); err == nil {
		t.Fatalf("cluster exited clean despite an aborted rank")
	}
}

// TestEstJobBytes pins the admission estimate to the recvBound-derived
// formula.
func TestEstJobBytes(t *testing.T) {
	if got := estJobBytes(4096, 4); got != 3*8*(1024+1) {
		t.Fatalf("estJobBytes(4096, 4) = %d", got)
	}
	if got := estJobBytes(1, 4); got != 3*8*2 {
		t.Fatalf("estJobBytes(1, 4) = %d", got)
	}
}

// TestBadRequests pins the 400 family.
func TestBadRequests(t *testing.T) {
	url, wait := startLocal(t, 4, Options{}, nil)
	for _, req := range []JobRequest{
		{Algo: "nope", N: 1024},
		{Kind: "nope", N: 1024},
		{N: 0},
	} {
		code, _, body := postJob(t, url, req)
		if code != http.StatusBadRequest {
			t.Fatalf("req %+v: HTTP %d (%s), want 400", req, code, body)
		}
	}
	resp, err := http.Get(url + "/jobs/j999")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	shutdown(t, url, wait)
}

// testCoordinator is a coordinator with no mesh behind it: enough to
// drive the job bookkeeping and the HTTP handlers directly.
func testCoordinator() *coordinator {
	co := &coordinator{jobs: make(map[string]*job)}
	co.cond = sync.NewCond(&co.mu)
	return co
}

// addRunning registers a job in the running state, as schedule leaves it.
func (co *coordinator) addRunning(id string, raw []uint64) *job {
	j := &job{id: id, state: StatusRunning, raw: raw, errPeer: -1, done: make(chan struct{})}
	co.jobs[id] = j
	co.running++
	return j
}

// TestFinishedJobsAreEvicted pins the retention bound: the coordinator
// keeps the most recent maxFinishedJobs completed records and nothing
// older, drops a job's raw input when it completes, and never evicts a
// job that is still running.
func TestFinishedJobsAreEvicted(t *testing.T) {
	co := testCoordinator()
	survivor := co.addRunning("running", nil)
	const extra = 5
	for i := 1; i <= maxFinishedJobs+extra; i++ {
		j := co.addRunning("j"+strconv.Itoa(i), []uint64{3, 1, 2})
		co.completeJob(j, jobOutcome{res: &Result{Count: 3}, errPeer: -1})
		if j.raw != nil {
			t.Fatalf("job %s still holds its raw input after completing", j.id)
		}
	}

	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		co.handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}
	var list []JobStatus
	if err := json.Unmarshal(get("/jobs").Body.Bytes(), &list); err != nil {
		t.Fatalf("decoding /jobs: %v", err)
	}
	finished := 0
	for _, st := range list {
		if st.Status == StatusDone || st.Status == StatusFailed {
			finished++
		}
	}
	if finished != maxFinishedJobs || len(list) != maxFinishedJobs+1 {
		t.Fatalf("/jobs lists %d jobs, %d finished; want %d and %d", len(list), finished, maxFinishedJobs+1, maxFinishedJobs)
	}
	if code := get("/jobs/j1").Code; code != http.StatusNotFound {
		t.Errorf("oldest finished job answers %d, want 404", code)
	}
	if code := get("/jobs/j" + strconv.Itoa(extra+1)).Code; code != http.StatusOK {
		t.Errorf("oldest retained job answers %d, want 200", code)
	}
	if code := get("/jobs/" + survivor.id).Code; code != http.StatusOK {
		t.Errorf("running job answers %d, want 200 — it was evicted", code)
	}
}

// TestStatusErrorRank pins the wire form of the blamed rank: rank 0 is
// reported as 0, "no rank" (-1) is omitted — the two used to serialize
// identically.
func TestStatusErrorRank(t *testing.T) {
	co := testCoordinator()
	for _, tc := range []struct {
		peer int64
		want string // the error_rank member, "" = absent
	}{{0, `"error_rank":0`}, {3, `"error_rank":3`}, {-1, ""}} {
		j := &job{id: "j1", state: StatusFailed, errMsg: "boom", errKind: "reset", errPeer: tc.peer}
		body, err := json.Marshal(co.statusOf(j))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(body), `"error_rank"`); got != (tc.want != "") || !strings.Contains(string(body), tc.want) {
			t.Errorf("peer %d: status %s, want member %q", tc.peer, body, tc.want)
		}
	}
}
