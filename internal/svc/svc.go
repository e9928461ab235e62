// Package svc is the sort service: a long-lived TCP cluster that
// accepts sort jobs over HTTP and runs many of them concurrently on one
// mesh — the layer that turns the benchmark harness into a system with
// traffic (ROADMAP open item 1).
//
// Topology: every rank of a netcomm cluster calls Serve collectively.
// Rank 0 is the coordinator — it listens for HTTP job submissions
// (POST /jobs with a workload spec or raw keys), admits them against a
// concurrency limit and a per-job memory budget, and dispatches each
// admitted job to all ranks over a reserved control tag. Every other
// rank runs a worker loop: it receives job descriptors in FIFO order
// and runs each job on its own goroutine.
//
// Concurrency contract — the tag/epoch namespace: each job is assigned
// a monotonically increasing epoch e and all of its collectives run
// through comm.WithTagOffset(world, (e+1)<<24). Every tag the sorting
// stack uses sits below 1<<24, so concurrent jobs occupy disjoint tag
// namespaces on the shared mesh and their messages cannot be confused:
// backends match messages by (sender, tag), and per (sender, tag) pair
// each job has exactly one receiving goroutine per rank. The un-offset
// control tags (0x7a…) are below 1<<24 and therefore collide with no
// job namespace. Concurrent jobs produce output byte-identical to the
// same jobs run sequentially (pinned by svc_test.go).
//
// Failure: a peer process dying poisons the mesh's mailbox, which fails
// every in-flight and future job with a *netcomm.TransportError — the
// job errors, the coordinator marks itself degraded (503 for new
// submissions) and keeps serving status and metrics. The server never
// panics because of a dead peer.
//
// Fault tolerance (DESIGN.md §15): when the communicator is a netcomm
// mesh with liveness enabled, the coordinator additionally watches
// peer health. A peer that merely stalls (stops reading, connection
// open) degrades the service recoverably: in-flight jobs on the
// stalled path fail typed with kind "stalled", dispatch is held, and
// when the peer's heartbeats resume the coordinator clears the
// degradation and serves again. Jobs failed by transport trouble are
// retried with exponential backoff up to Options.RetryBudget. Each job
// may carry a deadline (JobRequest.TimeoutMS); an expired job is
// aborted mesh-wide — an opAbort control message plus retirement of
// the job's tag namespace unwind every rank's goroutines — and its
// admission budget is reclaimed immediately.
package svc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/expt"
	"pmsort/internal/netcomm"
	"pmsort/internal/obs"
	"pmsort/internal/prng"
	"pmsort/internal/wire"
	"pmsort/internal/workload"
)

// Reserved service tags. The control tag is used un-offset on the world
// communicator; the job tags are used through each job's offset view,
// so their effective values are (epoch+1)<<24 + tag — disjoint across
// jobs and from everything below.
const (
	tagCtl       = 0x7a0001 // job descriptors and shutdown, rank 0 → workers
	tagJobData   = 0x7a0002 // raw-key scatter, rank 0 → workers (offset)
	tagJobResult = 0x7a0003 // per-rank results, every rank → rank 0 (offset)

	// epochStride is the per-job tag namespace step (not itself a
	// message tag). Every tag the sorting stack and the service use
	// sits below 1<<24 — pmsortvet's tagrange analyzer enforces the
	// ceiling, one 0x6?0000 block per package, and this package's
	// exclusive claim on 0x7a0000–0x7fffff — so stride 1<<24 makes job
	// namespaces fully disjoint.
	epochStride = 1 << 24
)

// jobOffset returns the tag offset of the job with the given epoch.
func jobOffset(epoch int64) int { return int(epoch+1) * epochStride }

// Control opcodes.
const (
	opJob      = 1
	opShutdown = 2
	opAbort    = 3 // retire one job's tag namespace mesh-wide
)

// meshComm is the optional endpoint capability the fault-tolerance
// layer rides on, implemented by *netcomm.Machine. In-process backends
// don't have it; on them health watching, job abort, and deadlines degrade
// to no-ops (jobs still run, they just cannot be unwound mid-flight).
type meshComm interface {
	Health() netcomm.MeshHealth
	RetireTagRange(lo, hi int)
}

// ctlMsg is the coordinator→worker control message: a job descriptor
// (opJob) or the shutdown notice (opShutdown). Wire-registered.
type ctlMsg struct {
	Op     int64
	ID     string
	Epoch  int64
	Algo   string
	Kind   string
	PerPE  int64 // workload jobs: elements generated per rank
	NTotal int64 // total elements across ranks (raw: len(keys))
	Seed   uint64
	Levels int64
	Keyed  bool
	Raw    bool // input arrives via tagJobData instead of the generator
	Gather bool // ship the sorted local output back to rank 0
}

// rankResult is one rank's outcome of one job, sent to rank 0 over the
// job's tagJobResult. Wire-registered.
type rankResult struct {
	Err     string
	ErrKind string // transport error kind ("" for non-transport errors)
	ErrPeer int64  // rank the transport failure is attributed to (-1: none)
	Count   int64
	First   uint64 // smallest output element (Count > 0)
	Last    uint64 // largest output element (Count > 0)
	Sum     uint64 // order-independent multiset hash: Σ mix64(key)
	Keys    []uint64
	PhaseNS [core.NumPhases]int64
	TotalNS int64
	Bytes   int64 // delivery-phase bytes through the exchange
}

func registerSvcWire() {
	wire.Register[ctlMsg]()
	wire.Register[rankResult]()
}

// Options tunes the service. The zero value serves on a random loopback
// port with the documented defaults.
type Options struct {
	// Addr is rank 0's HTTP listen address; "" means 127.0.0.1:0.
	Addr string
	// MaxConcurrent bounds the jobs running on the mesh at once
	// (default 8). Admitted jobs beyond it queue.
	MaxConcurrent int
	// MaxQueue bounds the admission queue (default 64); submissions
	// beyond it are rejected with 429.
	MaxQueue int
	// MemBudget is the per-rank memory budget in bytes shared by all
	// running jobs (default 256 MiB). A job's cost is estimated from the
	// delivery balance guarantee the sorters size their buffers with
	// (core's recvBound: each rank receives at most ⌈n/p⌉+1 elements per
	// level): 3 buffers — input, received run, scratch — of 8 bytes each,
	// so est(n) = 24·(⌈n/p⌉+1). A single job estimated above the whole
	// budget is rejected with 413; otherwise jobs queue until the sum of
	// running estimates fits.
	MemBudget int64
	// ResultLimit is the largest job (total elements) whose sorted
	// output is gathered to rank 0 and returned inline (default 65536).
	// Raw-key jobs are always gathered — callers submitted the data to
	// get it back sorted.
	ResultLimit int64
	// Ready, when set, is called once on rank 0 with the service's base
	// URL as soon as the HTTP listener is up.
	Ready func(url string)
	// RetryBudget is how many times a job failed by transport trouble
	// (a stalled or reset peer — not its own deadline, not a validation
	// error) is re-dispatched before it fails for good. 0 means the
	// default (2); negative disables retries.
	RetryBudget int
	// RetryBackoff is the delay before the first retry; each further
	// attempt doubles it (default 200ms).
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.MemBudget <= 0 {
		o.MemBudget = 256 << 20
	}
	if o.ResultLimit <= 0 {
		o.ResultLimit = 1 << 16
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 2
	} else if o.RetryBudget < 0 {
		o.RetryBudget = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Millisecond
	}
	return o
}

// estJobBytes is the admission-control memory estimate for a job of n
// total elements on a p-rank mesh (see Options.MemBudget).
func estJobBytes(n int64, p int) int64 {
	perPE := (n + int64(p) - 1) / int64(p)
	return 3 * 8 * (perPE + 1)
}

// Serve runs the sort service on this rank until shutdown. Collective:
// every rank of the communicator must call Serve; rank 0 additionally
// serves HTTP on opt.Addr. Rank 0 returns when ctx is cancelled or a
// POST /shutdown arrives, after draining queued and running jobs and
// notifying the workers; workers return when the shutdown notice
// arrives and their in-flight jobs have finished. A broken mesh
// (*netcomm.TransportError) fails the jobs riding on it, not the
// coordinator: rank 0 keeps serving status and metrics in a degraded
// state, while a worker whose control stream died returns the error.
func Serve(ctx context.Context, world comm.Communicator, opt Options) error {
	registerSvcWire()
	if world.Rank() == 0 {
		return serveCoordinator(ctx, world, opt.withDefaults())
	}
	return serveWorker(world)
}

// job is the coordinator's record of one submitted job. The mutable
// fields are guarded by co.mu.
type job struct {
	id    string
	desc  ctlMsg
	raw   []uint64 // raw-key input, scattered at dispatch; dropped on completion
	est   int64    // admission-control memory estimate
	state string   // StatusQueued … StatusFailed

	errMsg  string
	errKind string // transport error kind ("stalled", "reset", …) or "deadline"
	errPeer int64  // rank the failure is attributed to (-1: none)
	res     *Result

	timeout  time.Duration // job deadline; 0 = none
	timer    *time.Timer   // armed at dispatch when timeout > 0
	attempts int           // completed dispatch attempts (retries = attempts-1)

	submitted time.Time
	wallNS    int64

	done chan struct{} // closed on completion (done or failed)

	// abortReason is why the current dispatch was aborted ("" = it
	// wasn't): "deadline" (the job's own timeout fired) or "stalled"
	// (the mesh degraded under it and the coordinator unwound it).
	// abortPeer is the rank blamed for a stall abort (-1 otherwise).
	abortReason string
	abortPeer   int64
	abortSent   bool // opAbort broadcast for the current epoch
}

// maxFinishedJobs bounds how many completed (done or failed) job
// records — each holding up to ResultLimit gathered keys — the
// coordinator keeps for GET /jobs/{id}; older ones answer 404. Queued
// and running jobs are never evicted, and a Wait client holds its own
// *job, so eviction cannot race its reply.
const maxFinishedJobs = 256

// Job states reported over HTTP.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Result is the assembled outcome of a completed job.
type Result struct {
	Count      int64
	First      uint64
	Last       uint64
	Sum        uint64   // order-independent multiset hash of the output
	Keys       []uint64 // globally sorted output (gathered jobs only)
	PhaseNS    [core.NumPhases]int64
	TotalNS    int64
	BytesMoved int64
}

// coordinator is rank 0's state.
type coordinator struct {
	world comm.Communicator
	mesh  meshComm // world's fault-tolerance surface (nil off netcomm)
	opt   Options
	rec   *obs.Recorder // transport counters for /metrics (may be nil)

	mu           sync.Mutex
	cond         *sync.Cond
	jobs         map[string]*job
	finished     []string // ids of completed jobs still in jobs, oldest first
	queue        []*job
	running      int
	retryPending int // jobs parked in a retry-backoff timer
	memUse       int64
	nextID       int64
	nextEpoch    int64
	draining     bool
	degraded     error  // current transport degradation (sticky unless recoverable)
	degradedKind string // its kind; "stalled" clears when the peer recovers

	met metrics

	start        time.Time
	schedDone    chan struct{}
	stopOnce     sync.Once
	stopChanOnce sync.Once
	stopCh       chan struct{}
}

func serveCoordinator(ctx context.Context, world comm.Communicator, opt Options) error {
	co := &coordinator{
		world:     world,
		opt:       opt,
		rec:       obs.From(world),
		jobs:      make(map[string]*job),
		start:     time.Now(),
		schedDone: make(chan struct{}),
		stopCh:    make(chan struct{}),
	}
	co.mesh, _ = comm.Capability[meshComm](world)
	co.cond = sync.NewCond(&co.mu)

	ln, err := net.Listen("tcp", opt.Addr)
	if err != nil {
		// The mesh is up and the workers are parked in their control
		// receive: tell them to exit before failing, or they hang.
		co.broadcastShutdown()
		return fmt.Errorf("svc: rank 0 cannot listen on %s: %w", opt.Addr, err)
	}
	srv := &http.Server{Handler: co.handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	if opt.Ready != nil {
		opt.Ready("http://" + ln.Addr().String())
	}

	go co.schedule()
	if co.mesh != nil {
		go co.healthWatch()
	}

	select {
	case <-ctx.Done():
	case <-co.stopCh:
	case err := <-httpErr: // listener died out from under us
		co.beginDrain()
		<-co.schedDone
		return fmt.Errorf("svc: http server: %w", err)
	}
	co.beginDrain()
	<-co.schedDone
	_ = srv.Close()
	return nil
}

// beginDrain stops admissions; the scheduler finishes the queue, waits
// for running jobs, and notifies the workers.
func (co *coordinator) beginDrain() {
	co.stopOnce.Do(func() {
		co.mu.Lock()
		co.draining = true
		co.cond.Broadcast()
		co.mu.Unlock()
	})
}

// requestStop triggers the same drain from an HTTP handler.
func (co *coordinator) requestStop() {
	co.beginDrain()
	co.stopChanOnce.Do(func() { close(co.stopCh) })
}

// broadcastShutdown tells every worker to exit its serve loop.
func (co *coordinator) broadcastShutdown() {
	for w := 1; w < co.world.Size(); w++ {
		co.sendCtl(w, ctlMsg{Op: opShutdown})
	}
}

// sendCtl delivers one control message, swallowing the panic of a
// torn-down mesh: the failure already surfaces typed on the job paths,
// and a dead peer must not take the scheduler goroutine with it.
func (co *coordinator) sendCtl(w int, msg ctlMsg) {
	defer func() { _ = recover() }()
	co.world.Send(w, tagCtl, msg, 1)
}

// submit validates and admits one job. It returns the job record, or an
// HTTP status and message for rejected submissions.
func (co *coordinator) submit(req JobRequest) (*job, int, string) {
	desc, raw, status, msg := co.buildDesc(req)
	if status != 0 {
		return nil, status, msg
	}
	est := estJobBytes(desc.NTotal, co.world.Size())

	co.mu.Lock()
	defer co.mu.Unlock()
	if co.draining {
		return nil, http.StatusServiceUnavailable, "service is shutting down"
	}
	if co.degraded != nil {
		return nil, http.StatusServiceUnavailable,
			fmt.Sprintf("mesh degraded by a peer failure: %v", co.degraded)
	}
	if est > co.opt.MemBudget {
		co.met.rejected++
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("job needs an estimated %d B per rank, budget is %d B", est, co.opt.MemBudget)
	}
	if len(co.queue) >= co.opt.MaxQueue {
		co.met.rejected++
		return nil, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (%d jobs)", co.opt.MaxQueue)
	}
	co.nextID++
	j := &job{
		id:        fmt.Sprintf("j%d", co.nextID),
		desc:      desc,
		raw:       raw,
		est:       est,
		state:     StatusQueued,
		timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		errPeer:   -1,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	j.desc.ID = j.id
	co.jobs[j.id] = j
	co.queue = append(co.queue, j)
	co.met.submitted++
	co.cond.Signal()
	return j, 0, ""
}

// buildDesc translates an HTTP job request into a control descriptor.
func (co *coordinator) buildDesc(req JobRequest) (ctlMsg, []uint64, int, string) {
	var desc ctlMsg
	p := co.world.Size()
	desc.Op = opJob
	desc.Algo = req.Algo
	if desc.Algo == "" {
		desc.Algo = "ams"
	}
	algo, ok := expt.ParseAlgo(desc.Algo)
	if !ok {
		return desc, nil, http.StatusBadRequest, fmt.Sprintf("unknown algo %q", desc.Algo)
	}
	if (algo == expt.Bitonic || algo == expt.HCQ) && p&(p-1) != 0 {
		return desc, nil, http.StatusBadRequest,
			fmt.Sprintf("algo %q needs a power-of-two cluster, p=%d", desc.Algo, p)
	}
	desc.Levels = int64(req.Levels)
	if desc.Levels <= 0 {
		desc.Levels = 1
	}
	desc.Seed = req.Seed
	desc.Keyed = req.Keyed == nil || *req.Keyed
	if req.TimeoutMS < 0 {
		return desc, nil, http.StatusBadRequest, "timeout_ms must be non-negative"
	}

	if len(req.Keys) > 0 {
		desc.Raw = true
		desc.Gather = true
		desc.NTotal = int64(len(req.Keys))
		return desc, req.Keys, 0, ""
	}
	desc.Kind = req.Kind
	if desc.Kind == "" {
		desc.Kind = "uniform"
	}
	if _, ok := workload.ParseKind(desc.Kind); !ok {
		return desc, nil, http.StatusBadRequest, fmt.Sprintf("unknown kind %q", desc.Kind)
	}
	if req.N <= 0 {
		return desc, nil, http.StatusBadRequest, "n must be positive (or supply keys)"
	}
	desc.PerPE = (req.N + int64(p) - 1) / int64(p)
	desc.NTotal = desc.PerPE * int64(p)
	desc.Gather = desc.NTotal <= co.opt.ResultLimit
	return desc, nil, 0, ""
}

// schedule is the admission loop: it pops queued jobs in FIFO order and
// dispatches each as soon as a concurrency slot and the memory budget
// allow. Dispatch is held while the mesh is recoverably degraded (a
// stalled peer: jobs would only fail into their retry budget) unless a
// drain is in progress. On drain it finishes the queue — including
// jobs parked in retry backoff — waits for the running jobs, and sends
// the workers their shutdown notice.
func (co *coordinator) schedule() {
	defer close(co.schedDone)
	for {
		co.mu.Lock()
		for !co.dispatchableLocked() {
			if co.drainedLocked() {
				co.mu.Unlock()
				co.broadcastShutdown()
				return
			}
			co.cond.Wait()
		}
		j := co.queue[0]
		co.queue = co.queue[1:]
		co.running++
		co.memUse += j.est
		j.state = StatusRunning
		j.attempts++
		j.abortReason, j.abortPeer = "", -1
		j.abortSent = false
		j.desc.Epoch = co.nextEpoch
		co.nextEpoch++
		if j.timeout > 0 {
			j.timer = time.AfterFunc(j.timeout, func() { co.expireJob(j) })
		}
		co.mu.Unlock()

		// Dispatch before running rank 0's own share: control messages
		// are FIFO per (sender, tag), so every worker sees jobs in epoch
		// order and spawns a runner per job.
		for w := 1; w < co.world.Size(); w++ {
			co.sendCtl(w, j.desc)
		}
		go co.runJob(j)
	}
}

// dispatchableLocked reports whether the head of the queue can be
// dispatched right now.
func (co *coordinator) dispatchableLocked() bool {
	if len(co.queue) == 0 || co.running >= co.opt.MaxConcurrent ||
		co.memUse+co.queue[0].est > co.opt.MemBudget {
		return false
	}
	if co.degradedKind == netcomm.KindStalled.String() && !co.draining {
		// A stalled peer may recover; dispatching into the stall would
		// only burn retry budget. During a drain we dispatch anyway so
		// shutdown terminates (the jobs fail fast and typed).
		return false
	}
	return true
}

// drainedLocked reports whether the drain is complete: nothing queued,
// nothing running, nothing parked in a retry timer.
func (co *coordinator) drainedLocked() bool {
	return co.draining && len(co.queue) == 0 && co.running == 0 && co.retryPending == 0
}

// jobOutcome is what one dispatch attempt of a job produced, handed to
// completeJob for the retry/failure/success decision.
type jobOutcome struct {
	res       *Result
	transport error  // rank 0's own transport failure (gather/scatter), nil otherwise
	errMsg    string // non-empty = this attempt failed
	errKind   string // transport kind ("stalled", "reset", …); "" = not transport
	wallNS    int64
	errPeer   int64 // rank the failure is attributed to (-1: none)
}

// runJob executes rank 0's share of the job and gathers the per-rank
// results. Runs on its own goroutine; any number of runJobs are in
// flight at once, kept apart by the job tag namespaces.
func (co *coordinator) runJob(j *job) {
	start := time.Now()
	p := co.world.Size()
	jc := comm.WithTagOffset(co.world, jobOffset(j.desc.Epoch))

	results := make([]rankResult, p)
	runErr := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = recoveredError(r)
			}
		}()
		var chunk0 []uint64
		if j.desc.Raw {
			counts := comm.GroupSizes(len(j.raw), p)
			off := counts[0]
			for w := 1; w < p; w++ {
				chunk := j.raw[off : off+counts[w]]
				off += counts[w]
				jc.Send(w, tagJobData, chunk, int64(len(chunk)))
			}
			chunk0 = j.raw[:counts[0]:counts[0]]
		}
		results[0] = runLocal(co.world, j.desc, chunk0)
		for w := 1; w < p; w++ {
			pl, _ := jc.Recv(w, tagJobResult)
			results[w] = pl.(rankResult)
		}
		return nil
	}()

	wall := time.Since(start).Nanoseconds()
	if runErr != nil {
		// Rank 0's own view of the job died (typically the gather hit a
		// stalled / reset peer, or the namespace was retired by an
		// abort). Unwind the other ranks before completing.
		co.abortJob(j)
		out := jobOutcome{
			transport: runErr,
			errMsg:    fmt.Sprintf("gathering results: %v", runErr),
			wallNS:    wall,
			errPeer:   -1,
		}
		var te *netcomm.TransportError
		if errors.As(runErr, &te) {
			out.errKind = te.Kind.String()
			out.errPeer = int64(te.Peer)
		}
		co.completeJob(j, out)
		return
	}
	res := &Result{}
	var firstErr, firstKind string
	firstPeer := int64(-1)
	for rank, r := range results {
		if r.Err != "" && firstErr == "" {
			firstErr = fmt.Sprintf("rank %d: %s", rank, r.Err)
			firstKind = r.ErrKind
			firstPeer = r.ErrPeer
		}
		res.Count += r.Count
		res.Sum += r.Sum
		res.BytesMoved += r.Bytes
		if r.TotalNS > res.TotalNS {
			res.TotalNS = r.TotalNS
		}
		for ph := range r.PhaseNS {
			if r.PhaseNS[ph] > res.PhaseNS[ph] {
				res.PhaseNS[ph] = r.PhaseNS[ph]
			}
		}
	}
	if firstErr != "" {
		if firstKind != "" {
			// A remote rank hit transport trouble mid-job; its peers in
			// the same epoch may still be parked in collectives.
			co.abortJob(j)
		}
		co.completeJob(j, jobOutcome{errMsg: firstErr, errKind: firstKind, wallNS: wall, errPeer: firstPeer})
		return
	}
	// Output is globally ordered by rank (validated collectively inside
	// the job), so the gathered result is the rank-order concatenation.
	seen := false
	for _, r := range results {
		if r.Count == 0 {
			continue
		}
		if !seen {
			res.First = r.First
			seen = true
		}
		res.Last = r.Last
	}
	if j.desc.Gather {
		res.Keys = make([]uint64, 0, res.Count)
		for _, r := range results {
			res.Keys = append(res.Keys, r.Keys...)
		}
	}
	co.completeJob(j, jobOutcome{res: res, wallNS: wall, errPeer: -1})
}

// completeJob settles one dispatch attempt: release the admission
// slot, then either finalize the job (done, failed, expired) or park
// it for a retry. Idempotent per attempt — a second call for the same
// dispatch is a no-op.
func (co *coordinator) completeJob(j *job, out jobOutcome) {
	co.mu.Lock()
	if j.state != StatusRunning {
		co.mu.Unlock()
		return
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	co.running--
	co.memUse -= j.est
	j.wallNS = out.wallNS

	switch j.abortReason {
	case "deadline":
		// The deadline fired and aborted the job; the underlying error
		// is the retirement unwinding, but the cause is the deadline.
		out.errMsg = fmt.Sprintf("deadline exceeded (%v)", j.timeout)
		out.errKind = "deadline"
		out.errPeer = -1
		co.met.expired++
	case netcomm.KindStalled.String():
		// The coordinator unwound the job because a peer stalled under
		// it; blame the stall, not the retirement that delivered it.
		out.errMsg = fmt.Sprintf("aborted: rank %d stopped responding to heartbeats mid-job", j.abortPeer)
		out.errKind = netcomm.KindStalled.String()
		out.errPeer = j.abortPeer
	}

	// Degrade on real transport trouble — not on our own abort
	// retiring the namespace, and not on a deadline.
	if out.errKind != "" && out.errKind != netcomm.KindRetired.String() &&
		out.errKind != "deadline" && co.degraded == nil {
		co.degraded = transportCause(out)
		co.degradedKind = out.errKind
	}

	if out.errMsg != "" && j.abortReason != "deadline" &&
		out.errKind != "" && out.errKind != netcomm.KindRetired.String() &&
		j.attempts <= co.opt.RetryBudget && !co.draining {
		// Transport-failed with budget left: park for a backoff, then
		// requeue. The job stays visible as queued; done stays open.
		j.state = StatusQueued
		j.errMsg = out.errMsg
		j.errKind = out.errKind
		j.errPeer = out.errPeer
		co.met.retried++
		co.retryPending++
		backoff := co.opt.RetryBackoff << (j.attempts - 1)
		time.AfterFunc(backoff, func() { co.requeue(j) })
		co.cond.Broadcast()
		co.mu.Unlock()
		return
	}

	if out.errMsg == "" {
		j.state = StatusDone
		j.res = out.res
		j.errMsg, j.errKind, j.errPeer = "", "", -1
		co.met.completed++
		co.met.elements += out.res.Count
		co.met.bytesMoved += out.res.BytesMoved
		co.met.totalNS += out.res.TotalNS
		for ph := range out.res.PhaseNS {
			co.met.phaseNS[ph] += out.res.PhaseNS[ph]
		}
		co.met.observeWall(out.wallNS)
	} else {
		j.state = StatusFailed
		j.errMsg = out.errMsg
		j.errKind = out.errKind
		j.errPeer = out.errPeer
		co.met.failed++
	}
	j.raw = nil
	co.finished = append(co.finished, j.id)
	if len(co.finished) > maxFinishedJobs {
		delete(co.jobs, co.finished[0])
		co.finished = co.finished[1:]
	}
	co.cond.Broadcast()
	co.mu.Unlock()
	close(j.done)
}

// transportCause shapes a jobOutcome's failure into the coordinator's
// degradation error, preferring the real error object when rank 0 saw
// it first-hand.
func transportCause(out jobOutcome) error {
	if out.transport != nil {
		return out.transport
	}
	return fmt.Errorf("rank %d reported a %s transport failure", out.errPeer, out.errKind)
}

// requeue returns a retry-parked job to the admission queue once its
// backoff elapses.
func (co *coordinator) requeue(j *job) {
	co.mu.Lock()
	co.retryPending--
	if j.state == StatusQueued {
		co.queue = append(co.queue, j)
	}
	co.cond.Broadcast()
	co.mu.Unlock()
}

// expireJob is the deadline timer's callback: abort the job mesh-wide
// if it is still running. The retirement unwinds every rank's
// goroutines; the completion flows through runJob → completeJob, which
// sees the abort reason and reports the deadline, not the retirement.
func (co *coordinator) expireJob(j *job) {
	co.mu.Lock()
	if j.state != StatusRunning || j.abortReason != "" {
		co.mu.Unlock()
		return
	}
	j.abortReason, j.abortPeer = "deadline", -1
	co.mu.Unlock()
	co.abortJob(j)
}

// abortJob unwinds one job's current dispatch mesh-wide: every worker
// is told (opAbort) to retire the job's tag namespace, and rank 0
// retires its own. Queued and future messages in the namespace are
// dropped, parked receives fail with KindRetired, and the job's
// goroutines on every rank unwind typed. Idempotent per dispatch.
func (co *coordinator) abortJob(j *job) {
	co.mu.Lock()
	if j.abortSent {
		co.mu.Unlock()
		return
	}
	j.abortSent = true
	co.met.aborted++
	epoch := j.desc.Epoch
	co.mu.Unlock()
	for w := 1; w < co.world.Size(); w++ {
		co.sendCtl(w, ctlMsg{Op: opAbort, ID: j.id, Epoch: epoch})
	}
	if co.mesh != nil {
		co.mesh.RetireTagRange(jobOffset(epoch), jobOffset(epoch)+epochStride)
	}
}

// healthWatch polls the mesh's liveness state and maintains the
// coordinator's degradation: a fatal transport failure degrades
// permanently, a stalled peer degrades recoverably — when its
// heartbeats resume, the degradation clears and dispatch resumes.
func (co *coordinator) healthWatch() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-co.schedDone:
			return
		case <-t.C:
		}
		h := co.mesh.Health()
		var stalled []int
		for _, ph := range h.Peers {
			if ph.Stalled {
				stalled = append(stalled, ph.Rank)
			}
		}
		co.mu.Lock()
		var victims []*job
		switch {
		case h.Failed != nil:
			if co.degraded == nil || co.degradedKind == netcomm.KindStalled.String() {
				co.degraded = h.Failed
				co.degradedKind = failureKind(h.Failed)
			}
		case len(stalled) > 0:
			if co.degraded == nil {
				co.degraded = fmt.Errorf("peer(s) %v stopped responding to heartbeats", stalled)
				co.degradedKind = netcomm.KindStalled.String()
			}
			// Unwind the in-flight jobs: they are collectives over every
			// rank, so a stalled peer wedges them even when their next
			// receive is from a healthy one. Aborting them typed frees
			// their budget now and routes them into the retry loop.
			for _, j := range co.jobs {
				if j.state == StatusRunning && j.abortReason == "" && !j.abortSent {
					j.abortReason = netcomm.KindStalled.String()
					j.abortPeer = int64(stalled[0])
					victims = append(victims, j)
				}
			}
		default:
			if co.degradedKind == netcomm.KindStalled.String() {
				// The stall lifted; serve again.
				co.degraded, co.degradedKind = nil, ""
			}
		}
		co.cond.Broadcast()
		co.mu.Unlock()
		for _, j := range victims {
			co.abortJob(j)
		}
	}
}

// failureKind extracts the transport error kind from an error chain
// ("unknown" when it carries no *netcomm.TransportError).
func failureKind(err error) string {
	var te *netcomm.TransportError
	if errors.As(err, &te) {
		return te.Kind.String()
	}
	return netcomm.KindUnknown.String()
}

// serveWorker is every non-coordinator rank's loop: receive control
// messages in FIFO order, run each job on its own goroutine, exit on
// the shutdown notice after the in-flight jobs drain. An opAbort
// retires the named job's tag namespace, unwinding its local runner.
// A stall on the control stream (the coordinator stopped responding
// to heartbeats but may come back) is waited out; a hard transport
// failure (the coordinator died) is returned as an error after the
// jobs have failed over the same poisoned mailbox.
func serveWorker(world comm.Communicator) error {
	mc, _ := comm.Capability[meshComm](world)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		msg, err := recvCtl(world)
		if err != nil {
			var te *netcomm.TransportError
			if errors.As(err, &te) && te.Kind == netcomm.KindStalled {
				// Recoverable: the liveness layer will either lift the
				// stall (heartbeats resume) or escalate it to a fatal
				// failure (write deadline), which ends this loop.
				time.Sleep(20 * time.Millisecond)
				continue
			}
			return err
		}
		switch msg.Op {
		case opShutdown:
			return nil
		case opAbort:
			if mc != nil {
				mc.RetireTagRange(jobOffset(msg.Epoch), jobOffset(msg.Epoch)+epochStride)
			}
			continue
		}
		wg.Add(1)
		go func(d ctlMsg) {
			defer wg.Done()
			res := runLocal(world, d, nil)
			jc := comm.WithTagOffset(world, jobOffset(d.Epoch))
			defer func() { recover() }() // sending on a torn-down mesh must not kill the rank
			jc.Send(0, tagJobResult, res, int64(len(res.Keys))+4)
		}(msg)
	}
}

// recvCtl receives one control message, converting a transport panic
// into an error.
func recvCtl(world comm.Communicator) (msg ctlMsg, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(r)
		}
	}()
	pl, _ := world.Recv(0, tagCtl)
	return pl.(ctlMsg), nil
}

// runLocal runs this rank's share of one job: obtain the input
// (generate it, or take the scattered raw chunk), sort it collectively
// through the job's tag-offset view, validate, and report. Any panic —
// a transport failure, a validation failure — becomes an error result,
// not a process crash.
func runLocal(world comm.Communicator, d ctlMsg, chunk0 []uint64) (res rankResult) {
	defer func() {
		if r := recover(); r != nil {
			err := recoveredError(r)
			res = rankResult{Err: err.Error(), ErrPeer: -1}
			var te *netcomm.TransportError
			if errors.As(err, &te) {
				res.ErrKind = te.Kind.String()
				res.ErrPeer = int64(te.Peer)
			}
		}
	}()
	rank, p := world.Rank(), world.Size()
	jc := comm.WithTagOffset(world, jobOffset(d.Epoch))

	// The coordinator validated both names at submission (buildDesc);
	// raw jobs carry no kind and leave the zero value unused.
	algo, _ := expt.ParseAlgo(d.Algo)
	kind, _ := workload.ParseKind(d.Kind)

	var data []uint64
	switch {
	case d.Raw && rank == 0:
		data = chunk0
	case d.Raw:
		pl, _ := jc.Recv(0, tagJobData)
		data, _ = pl.([]uint64)
	default:
		data = workload.Local(kind, d.Seed, p, int(d.PerPE), rank)
	}

	spec := expt.Spec{
		Algo:   algo,
		P:      p,
		PerPE:  int(d.PerPE),
		Levels: int(d.Levels),
		Kind:   kind,
		Seed:   d.Seed,
		Keyed:  d.Keyed,
	}
	out, st := expt.RunData(jc, spec, data)

	res.Count = int64(len(out))
	if len(out) > 0 {
		res.First, res.Last = out[0], out[len(out)-1]
	}
	for _, k := range out {
		res.Sum += prng.Mix64(k)
	}
	res.PhaseNS = st.PhaseNS
	res.TotalNS = st.TotalNS
	res.Bytes = st.PhaseBytes[core.PhaseDataDelivery]
	if d.Gather {
		res.Keys = out
	}
	return res
}

// recoveredError shapes a recovered panic value into an error,
// preserving *netcomm.TransportError for errors.As.
func recoveredError(r any) error {
	switch v := r.(type) {
	case *netcomm.TransportError:
		return v
	case error:
		return v
	default:
		return fmt.Errorf("%v", v)
	}
}

// sortedJobs returns the retained job records in submission order (for
// /jobs) — the records, not their ids, so a concurrent eviction cannot
// pull one out from under the listing.
func (co *coordinator) sortedJobs() []*job {
	co.mu.Lock()
	defer co.mu.Unlock()
	jobs := make([]*job, 0, len(co.jobs))
	for _, j := range co.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if len(jobs[a].id) != len(jobs[b].id) {
			return len(jobs[a].id) < len(jobs[b].id)
		}
		return jobs[a].id < jobs[b].id
	})
	return jobs
}
