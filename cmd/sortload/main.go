// Command sortload hammers a sort service (sortnode -serve) with many
// small concurrent jobs and validates every result — the traffic
// generator for the service layer.
//
// Against a running service:
//
//	sortload -url http://127.0.0.1:8080 -jobs 1000 -concurrency 8 -n 4096
//
// Self-contained (brings up a p-rank loopback cluster inside this
// process — real TCP sockets and a real HTTP server — runs the load,
// and shuts it down):
//
//	sortload -local -p 4 -jobs 1000 -concurrency 16 -n 4096
//
// Each job is either a workload-spec sort (the service generates the
// input from a seed; sortload independently recomputes the expected
// multiset hash) or — for -rawpct of jobs — a raw-key sort (sortload
// generates random keys, submits them, and compares the returned keys
// against its own sorted copy). Jobs cycle through -kinds and use
// distinct seeds. Any wrong answer, failed job, or non-2xx response
// counts as a failure and makes sortload exit 1. The run ends with a
// GET /metrics scrape and a one-line summary.
//
// Fault drill (-local only): -faults wraps every rank's connections in
// a seeded netfault injector (latency, jitter, torn writes, short read
// stalls) with heartbeats on, and hard-aborts the last rank once ~60%
// of the jobs have been submitted:
//
//	sortload -local -p 4 -jobs 200 -faults
//
// Under the drill the pass criterion changes: every job must either
// validate exactly as above or fail *typed* — a failed status carrying
// a transport error_kind, or a 503 from the degraded/draining service.
// An untyped failure, a wrong answer, or a hang (the -deadline
// watchdog) still exits nonzero, as does a drill where no job
// validated, none failed typed, or the injector never fired.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/netcomm"
	"pmsort/internal/netfault"
	"pmsort/internal/prng"
	"pmsort/internal/svc"
	"pmsort/internal/workload"
)

func main() {
	var (
		url         = flag.String("url", "", "base URL of a running sort service")
		local       = flag.Bool("local", false, "bring up an in-process loopback service instead of -url")
		p           = flag.Int("p", 4, "cluster size for -local")
		jobs        = flag.Int("jobs", 1000, "total jobs to submit")
		concurrency = flag.Int("concurrency", 8, "concurrent submitters")
		n           = flag.Int64("n", 4096, "total elements per job")
		algoStr     = flag.String("algo", "ams", "algorithm for every job")
		kindsStr    = flag.String("kinds", "uniform,dup-heavy,sorted", "comma-separated workload kinds, cycled across jobs")
		levels      = flag.Int("levels", 1, "recursion levels per job")
		rawPct      = flag.Int("rawpct", 20, "percent of jobs submitted as raw keys (0-100)")
		seed        = flag.Uint64("seed", 1, "base seed; job i uses seed+i")
		verbose     = flag.Bool("v", false, "log every failure as it happens")
		faults      = flag.Bool("faults", false, "fault drill: inject network faults and abort one rank mid-run (-local only)")
		faultSeed   = flag.Uint64("faultseed", 0, "fault schedule seed for -faults (0: derive from -seed)")
		deadline    = flag.Duration("deadline", 3*time.Minute, "watchdog for -faults: the drill must finish within this or exit nonzero (0: off)")
	)
	flag.Parse()

	kinds := strings.Split(*kindsStr, ",")
	for _, k := range kinds {
		if kind, ok := workload.ParseKind(strings.TrimSpace(k)); !ok || kind == workload.OnePE {
			fatalf("unknown kind %q (one-pe is not load-generator material)", k)
		}
	}
	if *rawPct < 0 || *rawPct > 100 {
		fatalf("-rawpct must be 0-100")
	}

	ld := &loader{
		jobs:        *jobs,
		concurrency: *concurrency,
		n:           *n,
		algo:        *algoStr,
		kinds:       kinds,
		levels:      *levels,
		rawPct:      *rawPct,
		seed:        *seed,
		verbose:     *verbose,
		faults:      *faults,
		faultSeed:   *faultSeed,
		client:      &http.Client{Timeout: 5 * time.Minute},
	}
	if ld.faults {
		if !*local {
			fatalf("-faults needs -local (the injector wraps in-process connections)")
		}
		if *p < 2 {
			fatalf("-faults needs -p >= 2 (the drill aborts a worker rank)")
		}
		if ld.faultSeed == 0 {
			ld.faultSeed = *seed ^ 0xfa_17_5eed
		}
		if *deadline > 0 {
			// The drill's core promise is "never hangs": convert any wedge
			// into a loud nonzero exit instead of a stuck process.
			time.AfterFunc(*deadline, func() {
				fmt.Fprintf(os.Stderr, "sortload: watchdog: fault drill still running after %v\n", *deadline)
				os.Exit(1)
			})
		}
	}

	switch {
	case *local:
		os.Exit(runLocal(ld, *p))
	case *url != "":
		ld.base = strings.TrimRight(*url, "/")
		os.Exit(ld.run())
	default:
		fatalf("need -url or -local")
	}
}

// runLocal hosts the service in-process: a p-rank loopback TCP cluster,
// every rank serving, rank 0's HTTP address handed to the loader. The
// loader shuts the service down over HTTP when it is done.
//
// Under -faults every rank's connections go through a seeded netfault
// injector and heartbeats run; the loader hard-aborts rank p-1 once
// ~60% of the jobs are submitted, after which the mesh is fatally
// poisoned and the surviving coordinator must fail the rest typed.
func runLocal(ld *loader, p int) int {
	optFor := func(rank int) netcomm.Options { return netcomm.Options{} }
	if ld.faults {
		prof := netfault.Profile{
			Latency:         50 * time.Microsecond,
			Jitter:          200 * time.Microsecond,
			MaxWriteChunk:   1024,
			StallEveryBytes: 64 << 10,
			StallDuration:   2 * time.Millisecond,
		}
		ld.injs = make([]*netfault.Injector, p)
		for rank := range ld.injs {
			ld.injs[rank] = netfault.New(ld.faultSeed^(uint64(rank+1)<<40), prof)
		}
		ld.abortAt = ld.jobs * 6 / 10
		fmt.Printf("sortload: fault drill: repro %s per rank (faultseed %#x), abort of rank %d after %d submissions\n",
			ld.injs[0], ld.faultSeed, p-1, ld.abortAt)
		optFor = func(rank int) netcomm.Options {
			return netcomm.Options{
				HeartbeatInterval: 50 * time.Millisecond,
				StallWindow:       2 * time.Second, // injected stalls are 2ms; only real trouble trips it
				WrapConn:          ld.injs[rank].Wrap,
			}
		}
	}

	urlCh := make(chan string, 1)
	clusterErr := make(chan error, 1)
	status := make(chan int, 1)
	go func() {
		clusterErr <- netcomm.LocalClusterOpts(p, 0, optFor, func(m *netcomm.Machine, rank int) error {
			if ld.faults && rank == p-1 {
				ld.victim.Store(m)
			}
			var serveErr error
			_, runErr := m.Run(func(c comm.Communicator) {
				serveErr = svc.Serve(context.Background(), c, svc.Options{
					Ready: func(u string) { urlCh <- u },
				})
			})
			if runErr != nil {
				return runErr
			}
			return serveErr
		})
	}()
	go func() {
		ld.base = <-urlCh
		s := ld.run()
		resp, err := ld.client.Post(ld.base+"/shutdown", "application/json", nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sortload: shutdown: %v\n", err)
			s = 1
		} else {
			resp.Body.Close()
		}
		status <- s
	}()
	if err := <-clusterErr; err != nil {
		if ld.aborted.Load() {
			// The drill killed a rank on purpose; its peers' meshes tear
			// down with transport errors. That is the scenario, not a bug.
			fmt.Printf("sortload: cluster tore down after the injected abort (expected): %v\n", err)
			return <-status
		}
		fmt.Fprintf(os.Stderr, "sortload: cluster: %v\n", err)
		return 1
	}
	return <-status
}

type loader struct {
	base        string
	jobs        int
	concurrency int
	n           int64
	algo        string
	kinds       []string
	levels      int
	rawPct      int
	seed        uint64
	client      *http.Client

	p int // cluster size, learned from /metrics before the load starts

	// Fault-drill state (-faults).
	faultSeed uint64
	abortAt   int // submission index that triggers the rank abort
	injs      []*netfault.Injector
	victim    atomic.Pointer[netcomm.Machine]
	abortOnce sync.Once
	aborted   atomic.Bool

	completed atomic.Int64
	failed    atomic.Int64
	typed     atomic.Int64 // drill-acceptable failures: typed kinds and 503s

	verbose bool
	faults  bool
}

// typedFailure is a job outcome that is acceptable under -faults: the
// service refused or failed the job with an explicit, classified cause
// rather than a wrong answer, an untyped error, or a hang.
type typedFailure struct{ msg string }

func (e typedFailure) Error() string { return e.msg }

// abortVictim fires the drill's mid-run fault for real: a hard abort
// of rank p-1's machine (sockets reset, mailbox poisoned "aborted").
func (ld *loader) abortVictim() {
	ld.abortOnce.Do(func() {
		if m := ld.victim.Load(); m != nil {
			fmt.Printf("sortload: aborting rank %d mid-run\n", ld.p-1)
			ld.aborted.Store(true)
			m.Abort()
		}
	})
}

func (ld *loader) run() int {
	met, err := ld.scrapeMetrics()
	if err != nil || met.P <= 0 {
		fmt.Fprintf(os.Stderr, "sortload: service not answering /metrics at %s: %v\n", ld.base, err)
		return 1
	}
	ld.p = met.P

	start := time.Now()
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < ld.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				err := ld.oneJob(i)
				var tf typedFailure
				switch {
				case err == nil:
					ld.completed.Add(1)
				case ld.faults && errors.As(err, &tf):
					ld.typed.Add(1)
					if ld.verbose {
						fmt.Fprintf(os.Stderr, "sortload: job %d failed typed: %v\n", i, err)
					}
				default:
					ld.failed.Add(1)
					if ld.verbose {
						fmt.Fprintf(os.Stderr, "sortload: job %d: %v\n", i, err)
					}
				}
			}
		}()
	}
	for i := 0; i < ld.jobs; i++ {
		if ld.faults && i == ld.abortAt {
			ld.abortVictim()
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start)

	met, err = ld.scrapeMetrics()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sortload: scraping /metrics: %v\n", err)
		ld.failed.Add(1)
	}

	ok, bad, typed := ld.completed.Load(), ld.failed.Load(), ld.typed.Load()
	fmt.Printf("sortload: %d jobs in %v (%.1f jobs/s), %d ok, %d failed",
		ld.jobs, elapsed.Round(time.Millisecond),
		float64(ld.jobs)/elapsed.Seconds(), ok, bad)
	if ld.faults {
		fmt.Printf(", %d failed typed", typed)
	}
	if met != nil {
		fmt.Printf("; service: %d completed, %d failed, %d elements, %d bytes moved",
			met.Jobs.Completed, met.Jobs.Failed, met.ElementsSorted, met.BytesMoved)
		if met.Jobs.Failed > 0 && !ld.faults {
			bad += met.Jobs.Failed
		}
	}
	fmt.Println()
	if ld.faults {
		// The drill must demonstrably have happened: jobs validated
		// before the abort, jobs failed typed after it, and the injector
		// actually fired faults.
		var fired int64
		for _, in := range ld.injs {
			s := in.Stats()
			fired += s.Delays + s.ShortWrites + s.Stalls
		}
		switch {
		case ok == 0:
			fmt.Fprintln(os.Stderr, "sortload: fault drill: no job validated before the abort")
			bad++
		case typed == 0:
			fmt.Fprintln(os.Stderr, "sortload: fault drill: no job failed typed after the abort")
			bad++
		case fired == 0:
			fmt.Fprintln(os.Stderr, "sortload: fault drill: injector never fired")
			bad++
		default:
			fmt.Printf("sortload: fault drill ok: %d validated, %d typed failures, %d injected faults\n",
				ok, typed, fired)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// oneJob submits and validates the i-th job.
func (ld *loader) oneJob(i int) error {
	seed := ld.seed + uint64(i)
	if ld.rawPct > 0 && i%100 < ld.rawPct {
		return ld.rawJob(i, seed)
	}
	return ld.workloadJob(i, seed)
}

// rawJob submits locally generated keys and checks the echoed output is
// exactly the sorted input.
func (ld *loader) rawJob(i int, seed uint64) error {
	rng := prng.New(seed)
	keys := make([]uint64, ld.n)
	for j := range keys {
		keys[j] = rng.Next()
	}
	st, err := ld.post(svc.JobRequest{Algo: ld.algo, Keys: keys, Seed: seed, Levels: ld.levels, Wait: true})
	if err != nil {
		return err
	}
	if st.Status != svc.StatusDone {
		return jobFailure(st)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(st.Keys, want) {
		return fmt.Errorf("raw job output is not the sorted input (%d keys back, %d submitted)", len(st.Keys), len(want))
	}
	return nil
}

// workloadJob submits a spec job and validates the count and the
// independently recomputed multiset hash (plus order, when gathered).
func (ld *loader) workloadJob(i int, seed uint64) error {
	kindName := strings.TrimSpace(ld.kinds[i%len(ld.kinds)])
	st, err := ld.post(svc.JobRequest{
		Algo: ld.algo, Kind: kindName, N: ld.n, Seed: seed, Levels: ld.levels, Wait: true,
	})
	if err != nil {
		return err
	}
	if st.Status != svc.StatusDone {
		return jobFailure(st)
	}
	if st.Count != st.N {
		return fmt.Errorf("count %d, want %d", st.Count, st.N)
	}
	// Recompute the expected multiset hash the way the service's ranks
	// generated their slices — same kind, seed, and geometry (the service
	// rounds n up to perPE·p; st.N reports the rounded total).
	perPE := int(st.N) / ld.p
	kind, _ := workload.ParseKind(kindName) // validated in main
	var want uint64
	for rank := 0; rank < ld.p; rank++ {
		for _, k := range workload.Local(kind, seed, ld.p, perPE, rank) {
			want += prng.Mix64(k)
		}
	}
	if st.Sum != want {
		return fmt.Errorf("multiset hash %#x, want %#x", st.Sum, want)
	}
	if len(st.Keys) > 0 && !slices.IsSorted(st.Keys) {
		return fmt.Errorf("gathered output not sorted")
	}
	return nil
}

// jobFailure renders a non-done final status as an error — typed when
// the service classified the cause (transport kind or deadline), so
// the fault drill can tell expected casualties from real bugs.
func jobFailure(st *svc.JobStatus) error {
	msg := fmt.Sprintf("status %q: %s", st.Status, st.Error)
	if st.ErrorKind != "" {
		rank := "none"
		if st.ErrorRank != nil {
			rank = fmt.Sprint(*st.ErrorRank)
		}
		return typedFailure{msg: fmt.Sprintf("%s (kind %s, rank %s, %d attempts)", msg, st.ErrorKind, rank, st.Attempts)}
	}
	return fmt.Errorf("%s", msg)
}

func (ld *loader) post(req svc.JobRequest) (*svc.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := ld.client.Post(ld.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Degraded or draining: an explicit, classified refusal.
			return nil, typedFailure{msg: fmt.Sprintf("HTTP 503: %s", strings.TrimSpace(string(raw)))}
		}
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var st svc.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("decoding job status: %w", err)
	}
	return &st, nil
}

func (ld *loader) scrapeMetrics() (*svc.Metrics, error) {
	resp, err := ld.client.Get(ld.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var met svc.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		return nil, err
	}
	return &met, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sortload: "+format+"\n", args...)
	os.Exit(1)
}
