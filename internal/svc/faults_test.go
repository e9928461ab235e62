package svc

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/netcomm"
	"pmsort/internal/netfault"
)

// faultSeed parameterizes the fault scenarios below; the whole scenario
// is replayable from it (the injector logs its one-line repro).
const faultSeed = 0xf001

// startLocalOpts is startLocal with per-rank transport options — the
// bring-up for liveness scenarios, where ranks need heartbeats, stall
// windows, and netfault wrappers configured before the mesh connects.
func startLocalOpts(t *testing.T, p int, opt Options, optFor func(rank int) netcomm.Options) (string, func() error) {
	t.Helper()
	urlCh := make(chan string, 1)
	opt.Ready = func(u string) { urlCh <- u }
	errCh := make(chan error, 1)
	go func() {
		errCh <- netcomm.LocalClusterOpts(p, 0, optFor, func(m *netcomm.Machine, rank int) error {
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

// pollJob polls GET /jobs/{id} until pred holds or the deadline
// passes, returning the last status seen.
func pollJob(t *testing.T, url, id string, timeout time.Duration, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getJob(t, url, id)
		if pred(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pollMetricsState polls GET /metrics until the coordinator reports
// the wanted state.
func pollMetricsState(t *testing.T, url, want string, timeout time.Duration) Metrics {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		met := getMetrics(t, url)
		if met.State == want || time.Now().After(deadline) {
			return met
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStalledPeerFailsJobTypedAndRecovers is the issue's acceptance
// scenario end to end: one rank stops reading (connection open), the
// in-flight job fails typed with kind "stalled" attributed to that
// rank within the stall window, its admission budget is reclaimed, the
// coordinator keeps serving (degraded, 503 for new work), and when the
// peer recovers the service clears the degradation and sorts again —
// leaking no goroutines.
func TestStalledPeerFailsJobTypedAndRecovers(t *testing.T) {
	const (
		p        = 3
		interval = 20 * time.Millisecond
		window   = 250 * time.Millisecond
	)
	inj := netfault.New(faultSeed, netfault.Profile{})
	t.Logf("repro: %s, HangReads on rank %d", inj, p-1)

	baseline := runtime.NumGoroutine()
	url, wait := startLocalOpts(t, p,
		Options{MaxConcurrent: 2, RetryBudget: -1}, // no retries: the typed failure must surface
		func(rank int) netcomm.Options {
			opt := netcomm.Options{HeartbeatInterval: interval, StallWindow: window}
			if rank == p-1 {
				opt.WrapConn = inj.Wrap
			}
			return opt
		})

	// Warm the mesh: a healthy job must succeed first.
	code, st, body := postJob(t, url, JobRequest{N: 1 << 12, Wait: true})
	if code != http.StatusOK || st.Status != StatusDone {
		t.Fatalf("warm-up job: code %d, status %+v (%s)", code, st, body)
	}

	inj.HangReads()
	start := time.Now()
	code, st, body = postJob(t, url, JobRequest{N: 1 << 12})
	if code != http.StatusAccepted {
		t.Fatalf("submit during (undetected) stall: code %d (%s)", code, body)
	}
	st = pollJob(t, url, st.ID, 15*time.Second, func(s JobStatus) bool { return s.Status == StatusFailed })
	elapsed := time.Since(start)
	if st.Status != StatusFailed {
		t.Fatalf("job on the stalled mesh ended as %q, want failed", st.Status)
	}
	if st.ErrorKind != "stalled" {
		t.Fatalf("job failed with kind %q (%s), want stalled", st.ErrorKind, st.Error)
	}
	if st.ErrorRank == nil {
		t.Fatalf("failure not attributed to any rank, want %d", p-1)
	}
	if *st.ErrorRank != int64(p-1) {
		t.Fatalf("failure attributed to rank %d, want %d", *st.ErrorRank, p-1)
	}
	if elapsed > window+10*time.Second {
		t.Fatalf("stall took %v to surface (window %v)", elapsed, window)
	}

	// Degraded but alive: metrics must say so explicitly, name the
	// stalled peer, show the budget reclaimed, and new work must 503.
	met := pollMetricsState(t, url, "degraded", 5*time.Second)
	if met.State != "degraded" || met.DegradedKind != "stalled" {
		t.Fatalf("metrics state %q kind %q, want degraded/stalled", met.State, met.DegradedKind)
	}
	if met.Jobs.Running != 0 {
		t.Fatalf("%d jobs still hold budget after the typed failure", met.Jobs.Running)
	}
	found := false
	for _, pm := range met.Peers {
		if pm.Rank == p-1 && pm.Stalled {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics peers do not flag rank %d as stalled: %+v", p-1, met.Peers)
	}
	if code, _, _ := postJob(t, url, JobRequest{N: 1 << 10}); code != http.StatusServiceUnavailable {
		t.Fatalf("submission on a degraded mesh returned %d, want 503", code)
	}

	// Recovery: the peer resumes reading, the degradation clears, and
	// the service sorts again.
	inj.Release()
	met = pollMetricsState(t, url, "serving", 15*time.Second)
	if met.State != "serving" {
		t.Fatalf("service never recovered after the stall lifted: state %q", met.State)
	}
	code, st, body = postJob(t, url, JobRequest{N: 1 << 12, Wait: true})
	if code != http.StatusOK || st.Status != StatusDone {
		t.Fatalf("post-recovery job: code %d, status %+v (%s)", code, st, body)
	}

	shutdown(t, url, wait)

	// No goroutine leak: everything the cluster and the failed job
	// spawned must be gone (HTTP client idle conns released first).
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestJobDeadlineAbortsMeshWide pins the deadline path: a job wedged
// behind an unresponsive rank (liveness off, so nothing else would
// unwind it) expires, is aborted mesh-wide via tag retirement, reports
// kind "deadline", releases its budget — and the service stays healthy
// for the next job.
func TestJobDeadlineAbortsMeshWide(t *testing.T) {
	const p = 3
	inj := netfault.New(faultSeed+1, netfault.Profile{})
	url, wait := startLocalOpts(t, p, Options{RetryBudget: -1},
		func(rank int) netcomm.Options {
			if rank == p-1 {
				return netcomm.Options{WrapConn: inj.Wrap}
			}
			return netcomm.Options{}
		})

	code, st, body := postJob(t, url, JobRequest{N: 1 << 12, Wait: true})
	if code != http.StatusOK || st.Status != StatusDone {
		t.Fatalf("warm-up job: code %d (%s)", code, body)
	}

	inj.HangReads()
	code, st, _ = postJob(t, url, JobRequest{N: 1 << 12, TimeoutMS: 200})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	st = pollJob(t, url, st.ID, 15*time.Second, func(s JobStatus) bool { return s.Status == StatusFailed })
	if st.Status != StatusFailed || st.ErrorKind != "deadline" {
		t.Fatalf("expired job: status %q kind %q (%s), want failed/deadline", st.Status, st.ErrorKind, st.Error)
	}

	met := getMetrics(t, url)
	if met.Jobs.Expired != 1 || met.Jobs.Aborted != 1 {
		t.Fatalf("expired=%d aborted=%d, want 1/1", met.Jobs.Expired, met.Jobs.Aborted)
	}
	if met.Jobs.Running != 0 {
		t.Fatalf("expired job still holds budget: running=%d", met.Jobs.Running)
	}
	if met.State != "serving" {
		t.Fatalf("a deadline must not degrade the service: state %q (%s)", met.State, met.Degraded)
	}

	// The wedged rank comes back, drains its stale descriptors (the
	// retired epoch's runner unwinds via the opAbort), and the mesh
	// serves the next job.
	inj.Release()
	code, st, body = postJob(t, url, JobRequest{N: 1 << 12, Wait: true})
	if code != http.StatusOK || st.Status != StatusDone {
		t.Fatalf("post-expiry job: code %d, status %+v (%s)", code, st, body)
	}
	shutdown(t, url, wait)
}

// TestStallRetrySucceedsAfterRecovery pins the retry/backoff loop: a
// job whose first attempt dies on a stalled peer is parked, the
// scheduler holds dispatch while the mesh is degraded, and when the
// peer recovers the retry runs and the job completes — the client
// sees one job that simply took longer, with attempts > 1.
func TestStallRetrySucceedsAfterRecovery(t *testing.T) {
	const (
		p        = 3
		interval = 20 * time.Millisecond
		window   = 200 * time.Millisecond
	)
	inj := netfault.New(faultSeed+2, netfault.Profile{})
	url, wait := startLocalOpts(t, p,
		Options{RetryBudget: 3, RetryBackoff: 50 * time.Millisecond},
		func(rank int) netcomm.Options {
			opt := netcomm.Options{HeartbeatInterval: interval, StallWindow: window}
			if rank == p-1 {
				opt.WrapConn = inj.Wrap
			}
			return opt
		})

	code, st, body := postJob(t, url, JobRequest{N: 1 << 12, Wait: true})
	if code != http.StatusOK || st.Status != StatusDone {
		t.Fatalf("warm-up job: code %d (%s)", code, body)
	}

	inj.HangReads()
	code, st, _ = postJob(t, url, JobRequest{N: 1 << 12})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	// First attempt must fail and park the job as queued again.
	st = pollJob(t, url, st.ID, 15*time.Second, func(s JobStatus) bool {
		return s.Status == StatusQueued && s.Attempts >= 1
	})
	if st.Status != StatusQueued {
		t.Fatalf("job not parked for retry: %+v", st)
	}

	inj.Release()
	st = pollJob(t, url, st.ID, 20*time.Second, func(s JobStatus) bool {
		return s.Status == StatusDone || s.Status == StatusFailed
	})
	if st.Status != StatusDone {
		t.Fatalf("retried job ended %q (kind %q: %s)", st.Status, st.ErrorKind, st.Error)
	}
	if st.Attempts < 2 {
		t.Fatalf("job completed with %d attempts, want a retry", st.Attempts)
	}
	if met := getMetrics(t, url); met.Jobs.Retried < 1 {
		t.Fatalf("metrics retried=%d, want >= 1", met.Jobs.Retried)
	}
	shutdown(t, url, wait)
}
