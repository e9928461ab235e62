package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/netcomm"
	"pmsort/internal/obs"
	"pmsort/internal/prng"
	"pmsort/internal/svc"
	"pmsort/internal/workload"
)

const (
	svcJobN       = 4096 // total keys per job (1024 per rank)
	svcWarmupJobs = 200
	// svcPoolJobs distinct jobs are prepared at set-up and cycled: kinds
	// cycle uniform/dup-heavy/sorted (period 3), every 5th job uploads raw
	// keys (period 5); 60 = 4*lcm(3,5) keeps both cycles intact. The
	// service caches nothing, so a repeated seed costs what a new one does,
	// and preparing bodies and expectations up front keeps the client's
	// own work inside the timed window down to I/O and compares.
	svcPoolJobs      = 60
	svcHTTPFloorGets = 200
)

var svcKinds = []struct {
	name string
	kind workload.Kind
}{{"uniform", workload.Uniform}, {"dup-heavy", workload.DupHeavy}, {"sorted", workload.Sorted}}

// poolJob is one prepared request with what its answer must be.
type poolJob struct {
	raw       bool
	body      []byte
	wantKeys  []uint64 // raw jobs: the sorted input
	wantCount int64
	wantFirst uint64
	wantLast  uint64
	wantSum   uint64 // multiset hash, as sortload recomputes it
}

func buildJobPool(seed uint64, n int) ([]poolJob, error) {
	const p = numClusterRanks
	pool := make([]poolJob, svcPoolJobs)
	for i := range pool {
		jobSeed := seed + uint64(i)
		var keys []uint64
		req := svc.JobRequest{Algo: "ams", Seed: jobSeed, Levels: 1, Wait: true}
		if i%5 == 4 {
			rng := prng.New(jobSeed)
			keys = make([]uint64, n)
			for j := range keys {
				keys[j] = rng.Next()
			}
			req.Keys = keys
			pool[i].raw = true
		} else {
			k := svcKinds[i%len(svcKinds)]
			req.Kind, req.N = k.name, int64(n)
			for rank := 0; rank < p; rank++ {
				keys = append(keys, workload.Local(k.kind, jobSeed, p, n/p, rank)...)
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool[i].body = body
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		for _, k := range sorted {
			pool[i].wantSum += prng.Mix64(k)
		}
		pool[i].wantCount = int64(len(sorted))
		pool[i].wantFirst, pool[i].wantLast = sorted[0], sorted[len(sorted)-1]
		if pool[i].raw {
			pool[i].wantKeys = sorted
		}
	}
	return pool, nil
}

// check validates a final job status like sortload does: status done,
// one attempt, count/first/last/multiset sum, gathered keys sorted, and
// raw-key jobs equal to the locally sorted input.
func (pj *poolJob) check(st *svc.JobStatus) error {
	switch {
	case st.Status != svc.StatusDone:
		return fmt.Errorf("status %q: %s", st.Status, st.Error)
	case st.Attempts != 1:
		return fmt.Errorf("job took %d attempts", st.Attempts)
	case st.Count != pj.wantCount:
		return fmt.Errorf("count %d, want %d", st.Count, pj.wantCount)
	case st.First != pj.wantFirst || st.Last != pj.wantLast:
		return fmt.Errorf("first/last %d/%d, want %d/%d", st.First, st.Last, pj.wantFirst, pj.wantLast)
	case st.Sum != pj.wantSum:
		return fmt.Errorf("multiset hash %#x, want %#x", st.Sum, pj.wantSum)
	case pj.raw && !slices.Equal(st.Keys, pj.wantKeys):
		return fmt.Errorf("raw job output is not the sorted input")
	case !slices.IsSorted(st.Keys):
		return fmt.Errorf("gathered output not sorted")
	}
	return nil
}

// service is a 4-rank loopback mesh serving HTTP on rank 0, in-process
// (the sortload -local idiom), with a 2-connection keep-alive client.
type service struct {
	url      string
	client   *http.Client
	machines []*netcomm.Machine
	done     chan error
	stopOnce sync.Once
	stopErr  error
}

func startService(withObs bool) (*service, error) {
	const p = numClusterRanks
	s := &service{machines: make([]*netcomm.Machine, p), done: make(chan error, 1)}
	urlCh := make(chan string, 1)
	go func() {
		s.done <- netcomm.LocalClusterOpts(p, 0,
			func(int) netcomm.Options { return netcomm.Options{Obs: withObs} },
			func(m *netcomm.Machine, rank int) error {
				s.machines[rank] = m
				var serveErr error
				_, runErr := m.Run(func(c comm.Communicator) {
					serveErr = svc.Serve(context.Background(), c, svc.Options{Ready: func(u string) { urlCh <- u }})
				})
				if runErr != nil {
					return runErr
				}
				return serveErr
			})
	}()
	select {
	case s.url = <-urlCh:
	case err := <-s.done:
		return nil, fmt.Errorf("service did not come up: %v", err)
	}
	s.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: svcClientConns, MaxConnsPerHost: svcClientConns},
	}
	return s, nil
}

// stop shuts the service down over HTTP and waits for every rank; a
// second call returns the first one's outcome.
func (s *service) stop() error {
	s.stopOnce.Do(func() {
		resp, err := s.client.Post(s.url+"/shutdown", "application/json", nil)
		if err != nil {
			s.stopErr = err
			return
		}
		resp.Body.Close()
		s.client.CloseIdleConnections()
		s.stopErr = <-s.done
	})
	return s.stopErr
}

// jobSample is one timed job.
type jobSample struct {
	latNS  int64 // due time -> last byte of the response
	lagNS  int64 // due time -> request sent (open loop: generator lateness)
	wallNS int64 // the mesh sort's wall time, from the job status
	phase  [4]int64
	total  int64
	raw    bool
}

// post sends one prepared job and reads the whole response; the returned
// time is when its last byte arrived. A refusal (413/429/503) is reported
// as rejected.
func (s *service) post(pj *poolJob) (st *svc.JobStatus, doneAt time.Time, rejected bool, err error) {
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(pj.body))
	if err != nil {
		return nil, time.Now(), false, err
	}
	raw, err := io.ReadAll(resp.Body)
	doneAt = time.Now()
	resp.Body.Close()
	if err != nil {
		return nil, doneAt, false, err
	}
	if resp.StatusCode != http.StatusOK {
		rejected = resp.StatusCode == http.StatusRequestEntityTooLarge ||
			resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return nil, doneAt, rejected, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	st = &svc.JobStatus{}
	if err := json.Unmarshal(raw, st); err != nil {
		return nil, doneAt, false, fmt.Errorf("decoding job status: %w", err)
	}
	return st, doneAt, false, nil
}

// svcSegment is one service set-up and the jobs timed on it.
type svcSegment struct {
	samples   []jobSample
	attempted int
	failed    int
	rejected  int
	wallNS    int64
	proc      procCounters
	lastJobID string
}

// load drives jobs against the service from svcClientConns goroutines
// until the limit is reached. ratePerSec 0 is the closed loop: each
// client posts its next job when the previous one returns. Otherwise the
// loop is open: job i is due at start + i/rate, is sent by whichever
// client is free, and its latency counts from the due time.
func (s *service) load(pool []poolJob, lim segmentLimit, ratePerSec float64, plant string, bt *benchTrace) *svcSegment {
	seg := &svcSegment{}
	var mu sync.Mutex
	var next atomic.Int64
	runtime.GC() // every timed window starts from a collected heap
	before := readProcCounters()
	start := time.Now()
	var wg sync.WaitGroup
	for client := 0; client < svcClientConns; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := time.Now()
				if ratePerSec > 0 {
					due = start.Add(time.Duration(float64(i) / ratePerSec * float64(time.Second)))
				}
				if (lim.maxOps > 0 && i >= lim.maxOps) || (i > 0 && due.Sub(start) >= lim.dur) {
					return
				}
				waitUntil(due)
				pj := &pool[i%len(pool)]
				sent := time.Now()
				st, doneAt, rejected, err := s.post(pj)
				if err == nil && plant == "failjob" {
					st.Status, st.Error = svc.StatusFailed, "planted failure"
				}
				if err == nil {
					err = pj.check(st)
				}
				mu.Lock()
				seg.attempted++
				if bt != nil {
					bt.add(client, spanOp, 1, sent.Sub(bt.t0).Nanoseconds(), doneAt.Sub(bt.t0).Nanoseconds(), int64(i))
				}
				if err != nil {
					seg.failed++
					if rejected {
						seg.rejected++
					}
					if seg.failed <= 5 {
						fmt.Printf("  job %d FAILED: %v\n", i, err)
					}
				} else {
					js := jobSample{latNS: doneAt.Sub(due).Nanoseconds(), lagNS: sent.Sub(due).Nanoseconds(), wallNS: st.WallNS, total: st.TotalNS, raw: pj.raw}
					for ph := range js.phase {
						js.phase[ph] = st.PhaseNS[phaseNames[ph]]
					}
					seg.samples = append(seg.samples, js)
					seg.lastJobID = st.ID
				}
				mu.Unlock()
			}
		}(client)
	}
	wg.Wait()
	seg.wallNS = time.Since(start).Nanoseconds()
	seg.proc = readProcCounters().sub(before)
	return seg
}

// waitUntil sleeps until shortly before t and yields the rest of the way.
// A sleeping goroutine of an otherwise idle process wakes up to a
// millisecond late (the runtime parks in epoll, whose timeout counts
// milliseconds); the open loop times every job from its due time, so
// that lateness would be booked as service latency.
func waitUntil(t time.Time) {
	const yieldFor = 1500 * time.Microsecond
	if d := time.Until(t) - yieldFor; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// phaseNames are the JobStatus.PhaseNS keys, in core.Phase order.
var phaseNames = [4]string{"splitter selection", "bucket processing", "data delivery", "local sort"}

// httpFloorUS times GET /jobs/{id} of a finished job: the service path
// with no mesh work in it.
func (s *service) httpFloorUS(id string) (float64, error) {
	var us []float64
	for i := 0; i < svcHTTPFloorGets; i++ {
		t0 := time.Now()
		resp, err := s.client.Get(s.url + "/jobs/" + id)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET /jobs/%s: HTTP %d, %v", id, resp.StatusCode, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

func (s *service) retriedJobs() (int, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var met svc.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		return 0, err
	}
	return int(met.Jobs.Retried), nil
}

// svcRun is one service set-up (job pool, mesh, HTTP, warm-up jobs).
type svcRun struct {
	s      *service
	pool   []poolJob
	setupS float64
}

// svcJobKeys is the total number of keys per job at the run's scale.
func (o runOpts) svcJobKeys() int {
	if o.tiny() {
		return 256
	}
	return svcJobN
}

func startSvcRun(o runOpts, withObs bool) (*svcRun, error) {
	setupStart := time.Now()
	pool, err := buildJobPool(o.seed, o.svcJobKeys())
	if err != nil {
		return nil, err
	}
	s, err := startService(withObs)
	if err != nil {
		return nil, err
	}
	warm := s.load(pool, segmentLimit{dur: time.Minute, maxOps: o.warmup(svcWarmupJobs)}, 0, "", nil)
	if warm.failed > 0 {
		s.stop()
		return nil, fmt.Errorf("%d of %d warm-up jobs failed", warm.failed, warm.attempted)
	}
	return &svcRun{s: s, pool: pool, setupS: time.Since(setupStart).Seconds()}, nil
}

func (w *window) addSvcSegment(setupS float64, seg *svcSegment) {
	w.setups = append(w.setups, setupS)
	for _, s := range seg.samples {
		w.opNS = append(w.opNS, s.latNS)
	}
	w.wallNS += seg.wallNS
	w.attempted += seg.attempted
	w.failed += seg.failed
	w.proc = w.proc.add(seg.proc)
}

func runService(o runOpts) (*runResult, error) {
	res := newRunResult(o.workload, o.trace)
	res.noProbes = !o.probes
	rate := 0.0
	if o.workload == wlSvcTinyOpen {
		rate = svcOpenRatePerSec
	}
	w := &window{bytesPerOp: o.svcJobKeys() * 8}
	if !o.trace {
		for i := 0; i < untracedSetups; i++ {
			run, err := startSvcRun(o, false)
			if err != nil {
				return nil, err
			}
			seg := run.s.load(run.pool, o.limit(1.0/untracedSetups, 40), rate, o.plant, nil)
			if err := run.s.stop(); err != nil {
				return nil, err
			}
			w.addSvcSegment(run.setupS, seg)
		}
		w.endToEnd(res)
		if rate > 0 {
			res.note("open loop at a fixed %.0f jobs/s: ops_per_s and s_per_gb equal the offered rate by construction", rate)
		}
		return res, nil
	}

	// Untraced halves around the traced jobs, as for the one-shot runs.
	plain, err := startSvcRun(o, false)
	if err != nil {
		return nil, err
	}
	defer plain.s.stop()
	first := plain.s.load(plain.pool, o.limit(tracedRunUntracedShare/2, 20), rate, o.plant, nil)

	traced, err := startSvcRun(o, true)
	if err != nil {
		return nil, err
	}
	defer traced.s.stop()
	recs := make([]*obs.Recorder, len(traced.s.machines))
	for rank, m := range traced.s.machines {
		recs[rank] = m.Recorder()
	}
	warm := transportCounts(recs) // the warm-up jobs' share, subtracted below
	bt := newBenchTrace(svcClientConns)
	tseg := traced.s.load(traced.pool, o.limit(tracedRunTracedShare, 40), rate, "", bt)
	svcTraceMetrics(res, transportCounts(recs), warm, tseg)
	if err := traced.s.stop(); err != nil {
		return nil, err
	}

	second := plain.s.load(plain.pool, o.limit(tracedRunUntracedShare/2, 20), rate, o.plant, nil)
	floorUS, err := plain.s.httpFloorUS(second.lastJobID)
	if err != nil {
		return nil, err
	}
	retried, err := plain.s.retriedJobs()
	if err != nil {
		return nil, err
	}
	if err := plain.s.stop(); err != nil {
		return nil, err
	}

	w.addSvcSegment(plain.setupS, first)
	w.addSvcSegment(plain.setupS, second)
	w.endToEnd(res)
	w.procMetrics(res)
	samples := append(first.samples, second.samples...)
	svcReturnMetrics(res, samples, rate > 0)
	res.set("svc.http_floor_us_p50", floorUS)
	res.set("svc.rejected_ratio", float64(first.rejected+second.rejected)/float64(max(w.attempted, 1)))
	res.set("svc.retried_jobs", float64(retried))
	res.attempted += tseg.attempted
	res.failed += tseg.failed
	tracedP50 := medianOf(tseg.samples, func(s jobSample) float64 { return float64(s.latNS) / 1e6 })
	res.set("obs.overhead_pct", 100*(tracedP50-res.values["op_ms_p50"])/res.values["op_ms_p50"])
	res.note("traced run: %d jobs, op_ms_p50 %.3f ms traced vs %.3f ms untraced; service jobs hide the obs recorder, so only transport counters and bench spans exist", len(tseg.samples), tracedP50, res.values["op_ms_p50"])
	if err := writeTraceArtefacts(o.outDir, o.workload, bt.finish(), len(tseg.samples)); err != nil {
		return nil, err
	}
	if o.probes {
		return res, runProbes(o, res)
	}
	return res, nil
}

// svcReturnMetrics: what the job statuses and the client's clock already
// tell (source A).
func svcReturnMetrics(res *runResult, samples []jobSample, open bool) {
	lat := func(keep func(jobSample) bool) []float64 {
		var ms []float64
		for _, s := range samples {
			if keep(s) {
				ms = append(ms, float64(s.latNS)/1e6)
			}
		}
		return ms
	}
	all := lat(func(jobSample) bool { return true })
	var overhead []float64
	for _, s := range samples {
		overhead = append(overhead, float64(s.latNS-s.wallNS)/1e6)
	}
	phase := func(ph int) float64 {
		return medianOf(samples, func(s jobSample) float64 { return float64(s.phase[ph]) / 1e6 })
	}
	res.set("core.splitter_selection_ms", phase(0))
	res.set("core.bucket_processing_ms", phase(1))
	res.set("core.data_delivery_ms", phase(2))
	res.set("core.local_sort_ms", phase(3))
	res.set("core.exchange_share", medianOf(samples, func(s jobSample) float64 { return float64(s.phase[2]) / float64(max(s.total, 1)) }))
	res.set("svc.mesh_wall_ms_p50", medianOf(samples, func(s jobSample) float64 { return float64(s.wallNS) / 1e6 }))
	res.set("svc.overhead_ms_p50", percentile(overhead, 0.50))
	res.set("svc.overhead_ms_p95", percentile(overhead, 0.95))
	res.set("svc.op_ms_p99", percentile(all, 0.99))
	res.set("svc.spec_ms_p50", percentile(lat(func(s jobSample) bool { return !s.raw }), 0.50))
	res.set("svc.raw_ms_p50", percentile(lat(func(s jobSample) bool { return s.raw }), 0.50))
	if !open {
		return
	}
	var lag []float64
	for _, s := range samples {
		lag = append(lag, float64(s.lagNS)/1e6)
	}
	res.set("loadgen.lag_ms_p95", percentile(lag, 0.95))
	// The backlog grows when the generator falls ever further behind its
	// schedule: compare the lateness of the last quarter of the jobs with
	// the first quarter's, against one inter-arrival gap.
	q := len(lag) / 4
	growing := 0.0
	if q > 0 && median(lag[len(lag)-q:])-median(lag[:q]) > 1e3/svcOpenRatePerSec {
		growing = 1
	}
	res.set("loadgen.backlog_growing", growing)
}

// transportCounts sums the transport counters over all ranks once the
// wire is quiet (the depth gauge is a maximum, not a sum).
func transportCounts(recs []*obs.Recorder) map[string]int64 {
	quiesceTransport(recs)
	out := map[string]int64{}
	for _, r := range recs {
		for _, name := range []string{obs.CtrNetFramesIn, obs.CtrNetWritevCalls, obs.CtrNetWritevBytes, obs.CtrNetBufWrites, obs.CtrMboxWaitNS} {
			out[name] += r.Counter(name).Value()
		}
		out[obs.CtrMboxDepthMax] = max(out[obs.CtrMboxDepthMax], r.Counter(obs.CtrMboxDepthMax).Value())
	}
	return out
}

// svcTraceMetrics: the transport counters of all four ranks, per traced
// job. The service's ranks also wait in Recv between jobs, so the
// mailbox wait includes idle time on the open loop.
func svcTraceMetrics(res *runResult, after, before map[string]int64, seg *svcSegment) {
	perJob := func(name string) float64 {
		return float64(after[name]-before[name]) / float64(max(seg.attempted, 1))
	}
	res.set("netcomm.frames_per_op", perJob(obs.CtrNetFramesIn))
	res.set("netcomm.writev_calls_per_op", perJob(obs.CtrNetWritevCalls))
	res.set("netcomm.bytes_per_op", perJob(obs.CtrNetWritevBytes))
	res.set("netcomm.bufio_writes_per_op", perJob(obs.CtrNetBufWrites))
	res.set("netcomm.mbox_wait_ms_per_op", perJob(obs.CtrMboxWaitNS)/1e6)
	res.set("netcomm.mbox_depth_max", float64(after[obs.CtrMboxDepthMax]))
	res.set("obs.spans_per_op", 1) // the bench's own op span; the recorder sees none
}
