// Package pmsort is a Go reproduction of Axtmann, Bingmann, Sanders,
// Schulz: "Practical Massively Parallel Sorting" (SPAA 2015): multi-level
// AMS-sort (adaptive multi-level sample sort) and RLM-sort (recurse-last
// multiway mergesort), together with every building block the paper
// describes — multisequence selection, fast work-inefficient sorting,
// scalable data delivery, optimal bucket grouping.
//
// The algorithms are written against one Communicator type — an ordered
// PE group over a pluggable per-PE endpoint — and run on three backends:
//
//   - the simulated cluster (New/NewCustom): a deterministic
//     distributed-memory machine with the paper's single-ported α-β cost
//     model (§2.1) and a SuperMUC-like topology. Algorithms execute for
//     real on real data; only time is virtual, charged per message
//     (α + ℓ·β by link class) and per local operation — model
//     experiments at 10k+ PEs finish in host seconds.
//   - the native cluster (NewNative): p goroutines of this process
//     handing data over by reference with zero virtual-time
//     bookkeeping, so the identical algorithms sort real data at real
//     multicore speed, and phase statistics report wall-clock time.
//   - the TCP cluster (NewTCP): p single-PE processes — typically on
//     different machines — meshed with one persistent duplex TCP
//     connection per pair, exchanging payloads through the typed wire
//     codec of internal/wire. cmd/sortnode launches ranks.
//
// Quick start, simulated (virtual time, any p):
//
//	cl := pmsort.New(64) // 64 simulated PEs
//	outs := make([][]uint64, cl.P())
//	cl.Run(func(pe *pmsort.PE) {
//		data := makeMyLocalData(pe.Rank())
//		sorted, st := pmsort.AMSSort(pmsort.World(pe), data,
//			func(a, b uint64) bool { return a < b },
//			pmsort.Config{Levels: 2})
//		outs[pe.Rank()] = sorted
//		_ = st.TotalNS // virtual nanoseconds under the α-β model
//	})
//
// Quick start, native (wall-clock time, p ≈ GOMAXPROCS):
//
//	ncl := pmsort.NewNative(8) // 8 goroutine-PEs
//	outs := make([][]uint64, ncl.P())
//	elapsed := ncl.Run(func(c pmsort.Communicator) {
//		data := makeMyLocalData(c.Rank())
//		sorted, _ := pmsort.AMSSort(c, data,
//			func(a, b uint64) bool { return a < b },
//			pmsort.Config{Levels: 1})
//		outs[c.Rank()] = sorted
//	})
//	_ = elapsed // real time for the whole distributed sort
//
// Quick start, TCP (one process per rank; see cmd/sortnode for a
// ready-made launcher):
//
//	peers := []string{"10.0.0.1:9000", "10.0.0.2:9000"}
//	cl, err := pmsort.NewTCP(rank, peers) // blocks until the mesh is up
//	if err != nil { ... }
//	defer cl.Close()
//	elapsed, err := cl.Run(func(c pmsort.Communicator) {
//		sorted, _ := pmsort.AMSSort(c, myLocalData, less, pmsort.Config{Levels: 2})
//		...
//	})
//
// All backends produce bit-identical output for identical inputs and
// seeds (every collective is deterministic), which the conformance
// tests assert — including a real multi-process TCP cluster on
// loopback. See DESIGN.md for the cost model, the Communicator/backend
// architecture, and the wire protocol, and EXPERIMENTS.md for the
// reproduced results.
package pmsort

import (
	"context"
	"time"

	"pmsort/internal/baseline"
	"pmsort/internal/chaos"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/delivery"
	"pmsort/internal/msel"
	"pmsort/internal/native"
	"pmsort/internal/netcomm"
	"pmsort/internal/obs"
	"pmsort/internal/sim"
	"pmsort/internal/svc"
	"pmsort/internal/wire"
)

// Re-exported communication and simulator types. A Communicator is an
// ordered group of PEs with this PE's position in it — the backend-
// neutral type every algorithm accepts; a PE is one processing element
// of the simulated machine.
type (
	// Communicator is the communicator of every backend (see DESIGN.md
	// §6): Size/Rank/GlobalRank, point-to-point Send/Recv, local group
	// splitting, and a cost-annotation hook the simulator charges and
	// other backends ignore.
	Communicator = comm.Communicator
	// PE is a processing element bound to the goroutine running it
	// (simulated backend).
	PE = sim.PE
	// Topology places PEs into nodes and islands.
	Topology = sim.Topology
	// CostModel holds the α-β and local-operation cost constants.
	CostModel = sim.CostModel
	// RunResult reports the virtual clocks after a Run.
	RunResult = sim.RunResult
	// Config tunes the sorting algorithms (levels, sampling factors,
	// delivery strategy, and the local-kernel fast paths:
	// set Key to a func(E) uint64 embedding the element order to switch
	// the local sort phases to radix kernels, or — for comparator sorts
	// — set Prefix to an order-preserving, not necessarily injective
	// func(E) uint64 to route classification, local sorting, and merging
	// through cached uint64 compares with the comparator deciding only
	// equal-prefix ties; output stays byte-identical to the plain
	// comparator path. Ordered scalar/string element types derive a
	// Prefix automatically — exact for the integer types, which then
	// take the radix kernels as under Key; NoPrefix opts out. See
	// DESIGN.md §9 and §11.)
	Config = core.Config
	// Stats reports per-phase times and balance of a run (virtual ns on
	// the simulated backend, wall-clock ns on the native one).
	Stats = core.Stats
	// Phase identifies one of the four measured phases (§7.1).
	Phase = core.Phase
	// DeliveryOptions selects the data redistribution algorithm (§4.3).
	DeliveryOptions = delivery.Options
	// DeliveryStrategy is one of the §4.3 redistribution algorithms.
	DeliveryStrategy = delivery.Strategy
	// DeliveryExchange selects the bulk all-to-all algorithm (§7.1).
	DeliveryExchange = delivery.Exchange
)

// Bulk exchange algorithms (§7.1).
const (
	DeliveryOneFactor = delivery.OneFactor
	DeliveryDirect    = delivery.Direct
)

// Phases, in the order the paper's figures stack them.
const (
	PhaseSplitterSelection = core.PhaseSplitterSelection
	PhaseBucketProcessing  = core.PhaseBucketProcessing
	PhaseDataDelivery      = core.PhaseDataDelivery
	PhaseLocalSort         = core.PhaseLocalSort
	NumPhases              = core.NumPhases
)

// Delivery strategies (§4.3, §4.3.1, Appendix A).
const (
	DeliverySimple             = delivery.Simple
	DeliveryRandomized         = delivery.Randomized
	DeliveryRandomizedAdvanced = delivery.RandomizedAdvanced
	DeliveryDeterministic      = delivery.Deterministic
)

// DefaultTopology returns the SuperMUC-like hierarchy (16 PEs per node,
// 32 nodes per island).
func DefaultTopology() Topology { return sim.DefaultTopology() }

// FlatTopology returns a hierarchy-free placement (one island).
func FlatTopology() Topology { return sim.FlatTopology() }

// DefaultCost returns the calibrated cost constants.
func DefaultCost() CostModel { return sim.DefaultCost() }

// Cluster is a simulated distributed-memory machine.
type Cluster struct {
	m *sim.Machine
}

// New creates a cluster of p PEs with the default topology and costs.
func New(p int) *Cluster {
	return &Cluster{m: sim.NewDefault(p)}
}

// NewCustom creates a cluster with explicit topology and cost model.
func NewCustom(p int, topo Topology, cost CostModel) *Cluster {
	return &Cluster{m: sim.New(p, topo, cost)}
}

// P returns the number of PEs.
func (cl *Cluster) P() int { return cl.m.P() }

// Run executes fn once per PE (each on its own goroutine) and returns
// the final virtual clocks.
func (cl *Cluster) Run(fn func(pe *PE)) RunResult { return cl.m.Run(fn) }

// Reset zeroes all virtual clocks and counters between runs.
func (cl *Cluster) Reset() { cl.m.Reset() }

// PEInfo returns the PE with the given rank for counter inspection
// between runs.
func (cl *Cluster) PEInfo(rank int) *PE { return cl.m.PE(rank) }

// NativeCluster is a real shared-memory machine: p goroutines of this
// process handing data over by reference, with no virtual-time
// bookkeeping. The same generic algorithms sort real data at real
// multicore speed on it; Stats report wall-clock nanoseconds.
type NativeCluster struct {
	m *native.Machine
}

// NewNative creates a native cluster of p goroutine-PEs. Throughput
// saturates around p = GOMAXPROCS; larger p still works (goroutines
// time-share cores).
func NewNative(p int) *NativeCluster {
	return &NativeCluster{m: native.New(p)}
}

// P returns the number of PEs.
func (cl *NativeCluster) P() int { return cl.m.P() }

// Run executes fn once per PE (each on its own goroutine), handing
// every PE its world communicator, and returns the wall-clock makespan.
func (cl *NativeCluster) Run(fn func(c Communicator)) time.Duration {
	return cl.m.Run(fn)
}

// WireEncoder is the custom element codec hook of the TCP backend:
// set Config.Encoder to one to sort element types the structural wire
// codec cannot serialize on its own (see internal/wire).
type WireEncoder = wire.Encoder

// TCPCluster is this process's endpoint of a multi-process TCP cluster
// (backend 3): each rank runs in its own process — typically on its own
// machine — and the ranks are meshed with one persistent duplex TCP
// connection per pair. Payloads cross process boundaries through a
// typed, self-describing wire codec; element types made of scalars and
// plain structs serialize automatically, anything else plugs in via
// Config.Encoder. Stats report wall-clock nanoseconds, like the native
// backend.
type TCPCluster struct {
	m *netcomm.Machine
}

// NewTCP joins (and, collectively, forms) a TCP cluster: peers is the
// same ordered list of host:port addresses on every process, and rank
// is this process's index in it. NewTCP binds peers[rank], connects the
// full mesh (blocking until all peers are up, retrying for the default
// 30s rendezvous window — NewTCPOpts with TCPOptions.RendezvousTimeout
// changes it), and returns the ready endpoint. A peer that never
// answers fails the rendezvous with an error naming its rank and
// address. Use cmd/sortnode to launch ranks, or call this from your own
// per-rank processes.
func NewTCP(rank int, peers []string) (*TCPCluster, error) {
	m, err := netcomm.New(rank, peers, netcomm.Options{})
	if err != nil {
		return nil, err
	}
	return &TCPCluster{m: m}, nil
}

// P returns the number of ranks in the cluster.
func (cl *TCPCluster) P() int { return cl.m.P() }

// Rank returns this process's rank.
func (cl *TCPCluster) Rank() int { return cl.m.Rank() }

// Run executes fn as this rank's PE program, handing it the world
// communicator. All ranks must call Run collectively with the same
// program. It returns this rank's wall-clock time; transport failures
// and algorithm panics come back as errors.
func (cl *TCPCluster) Run(fn func(c Communicator)) (time.Duration, error) {
	return cl.m.Run(fn)
}

// Close flushes outstanding sends, waits for the peers to hang up too,
// and tears the mesh down. Call it once, after the last Run.
func (cl *TCPCluster) Close() error { return cl.m.Close() }

// MeshHealth is the liveness view of a TCP cluster endpoint: the
// sticky fatal transport error (if any) and, when heartbeats are on
// (TCPOptions.HeartbeatInterval), each peer's last round-trip, pong
// age, and stall flag.
type MeshHealth = netcomm.MeshHealth

// Health reports this endpoint's view of the mesh's liveness.
func (cl *TCPCluster) Health() MeshHealth { return cl.m.Health() }

// ServeOptions tunes the sort service (see internal/svc): rank 0's HTTP
// listen address, the admission limits, and the gathered-result cutoff.
type ServeOptions = svc.Options

// Serve turns the cluster into a long-lived sort service until ctx is
// cancelled or a POST /shutdown arrives. Collective: every rank must
// call Serve. Rank 0 serves HTTP on opt.Addr — POST /jobs submits a
// sort (a workload spec or raw keys), GET /jobs/{id} polls it,
// GET /metrics reports job counts, phase latencies, bytes moved, and
// the transport counters — and dispatches admitted jobs to all ranks
// over reserved control tags; any number of jobs run concurrently on
// the one mesh, kept apart by per-job tag namespaces. A dead peer fails
// the jobs riding on the mesh, not the server: rank 0 keeps answering
// status and metrics in a degraded state. See cmd/sortnode -serve for
// the ready-made server and cmd/sortload for a load generator.
func (cl *TCPCluster) Serve(ctx context.Context, opt ServeOptions) error {
	var serveErr error
	_, runErr := cl.m.Run(func(c Communicator) {
		serveErr = svc.Serve(ctx, c, opt)
	})
	if runErr != nil {
		return runErr
	}
	return serveErr
}

// Chaos middleware (internal/chaos): a deterministic, seeded
// fault-and-contract-checking wrapper that composes over any backend.
// WrapChaos(c, cfg) returns a communicator that perturbs goroutine
// schedules, force-serializes every in-process payload through the wire
// codec (catching missing registrations, aliasing bugs, and forbidden
// post-Send mutation on the sim/native backends, not just on TCP), and
// audits declared message sizes. See DESIGN.md §8 for the torture
// harness built on it.
type (
	// ChaosConfig tunes the middleware; the zero value injects and
	// checks nothing.
	ChaosConfig = chaos.Config
	// ChaosAudit accumulates violations and counters across the PEs of
	// a run; share one via ChaosConfig.Audit.
	ChaosAudit = chaos.Audit
	// ChaosViolation is one detected contract violation.
	ChaosViolation = chaos.Violation
)

// WrapChaos wraps a communicator in the chaos middleware. Call it once
// per PE on the communicator the PE program starts from; communicators
// split from the wrapper stay wrapped. Equal seeds inject identical
// schedules, so a failing run replays from its seed.
func WrapChaos(c Communicator, cfg ChaosConfig) Communicator {
	return chaos.Wrap(c, cfg)
}

// Observability (internal/obs): a backend-neutral tracer per rank —
// nestable spans with the backend's native clock (virtual nanoseconds on
// the simulator, wall-clock on native/TCP), named counters, and per-peer
// traffic tables. Tracing is off by default and costs nothing while off
// (every recording call is a nil-receiver no-op; benchmark-pinned).
// Enable it on the cluster, run a sort, then GatherTrace and export:
//
//	cl := pmsort.NewNative(4)
//	cl.EnableObs()
//	var trace *pmsort.ObsTrace
//	cl.Run(func(c pmsort.Communicator) {
//		sorted, _ := pmsort.AMSSort(c, data[c.Rank()], less, cfg)
//		if t := pmsort.GatherTrace(c); t != nil { trace = t } // rank 0
//	})
//	trace.WriteChrome(f)    // chrome://tracing / Perfetto JSON
//	trace.WriteReport(os.Stdout)
type (
	// ObsRecorder is one rank's tracer; recording methods on a nil
	// recorder are no-ops, which is the disabled path.
	ObsRecorder = obs.Recorder
	// ObsSnapshot is one rank's frozen trace (spans, counters, peers).
	ObsSnapshot = obs.Snapshot
	// ObsTrace is the merged multi-rank trace GatherTrace returns; it
	// exports WriteChrome, WriteReport, and Validate.
	ObsTrace = obs.Trace
	// ObsSpan is one recorded span interval.
	ObsSpan = obs.SpanRec
)

// EnableObs attaches an observability recorder to every PE; subsequent
// sorts emit spans and counters with virtual timestamps. Call before
// Run.
func (cl *Cluster) EnableObs() { cl.m.EnableObs() }

// ObsRecorder returns rank's recorder (nil before EnableObs).
func (cl *Cluster) ObsRecorder(rank int) *ObsRecorder { return cl.m.ObsRecorder(rank) }

// EnableObs attaches an observability recorder to every PE; subsequent
// sorts emit spans and counters with wall-clock timestamps, and PE
// goroutines get pprof labels (pmsort_rank). Call before Run.
func (cl *NativeCluster) EnableObs() { cl.m.EnableObs() }

// ObsRecorder returns rank's recorder (nil before EnableObs).
func (cl *NativeCluster) ObsRecorder(rank int) *ObsRecorder { return cl.m.ObsRecorder(rank) }

// TCPOptions configures a TCP cluster endpoint beyond the defaults.
type TCPOptions struct {
	// Obs attaches an observability recorder to this rank: sorts emit
	// spans and counters, the transport counts frames and vectored
	// writes, the mailbox tracks queue depth and blocked-receive wait,
	// and the IO goroutines get pprof labels.
	Obs bool
	// RendezvousTimeout bounds the whole mesh construction — bind, dial
	// retries, handshakes. 0 means 30s. Raise it when ranks start far
	// apart in time (slow schedulers); lower it to fail fast in tests.
	RendezvousTimeout time.Duration
	// HeartbeatInterval enables peer liveness: each rank pings every
	// peer at this cadence on a reserved transport tag and tracks the
	// round-trip. 0 disables heartbeats (set StallWindow alone and the
	// interval defaults to a quarter of it).
	HeartbeatInterval time.Duration
	// StallWindow is how long a peer may go without answering
	// heartbeats — or without draining its socket during a bulk write —
	// before this rank declares it stalled: receives from it fail with
	// *TransportError{Kind: KindStalled} until its heartbeats resume.
	// 0 disables stall detection and write deadlines.
	StallWindow time.Duration
}

// NewTCPOpts is NewTCP with explicit options.
func NewTCPOpts(rank int, peers []string, opt TCPOptions) (*TCPCluster, error) {
	m, err := netcomm.New(rank, peers, netcomm.Options{
		Obs:               opt.Obs,
		RendezvousTimeout: opt.RendezvousTimeout,
		HeartbeatInterval: opt.HeartbeatInterval,
		StallWindow:       opt.StallWindow,
	})
	if err != nil {
		return nil, err
	}
	return &TCPCluster{m: m}, nil
}

// ObsRecorder returns this rank's recorder (nil unless the cluster was
// created with TCPOptions.Obs).
func (cl *TCPCluster) ObsRecorder() *ObsRecorder { return cl.m.Recorder() }

// RecorderOf returns the observability recorder attached to a
// communicator, or nil when tracing is off — the hook PE programs use
// to add their own spans and counters next to the built-in ones.
func RecorderOf(c Communicator) *ObsRecorder { return obs.From(c) }

// GatherTrace collects every rank's trace snapshot at rank 0 and
// returns the merged trace there (nil on all other ranks). Collective
// call, made inside the PE program after the instrumented work. On the
// TCP backend the per-rank clocks are aligned with an NTP-style
// midpoint exchange before merging; on sim/native the offsets are ≈0.
// Ranks that never enabled tracing contribute empty snapshots, so the
// merged trace always covers all ranks.
func GatherTrace(c Communicator) *ObsTrace { return obs.Gather(c, obs.From(c)) }

// World returns the communicator containing all PEs of pe's cluster.
func World(pe *PE) Communicator { return sim.World(pe) }

// PlanLevels returns the per-level group counts used by the weak-scaling
// experiments (Table 1).
func PlanLevels(p, k int) []int { return core.PlanLevels(p, k) }

// AMSSort sorts the distributed data with adaptive multi-level sample
// sort (§6). Collective: all PEs of c must call it with identical cfg.
// The input slice is consumed (reordered in place and recycled as
// scratch); copy it first if you still need the original.
func AMSSort[E any](c Communicator, data []E, less func(a, b E) bool, cfg Config) ([]E, *Stats) {
	return core.AMSSort(c, data, less, cfg)
}

// RLMSort sorts the distributed data with recurse-last multiway
// mergesort (§5); the output is perfectly balanced. The input slice is
// consumed (sorted in place and recycled as scratch); copy it first if
// you still need the original.
func RLMSort[E any](c Communicator, data []E, less func(a, b E) bool, cfg Config) ([]E, *Stats) {
	return core.RLMSort(c, data, less, cfg)
}

// GVSampleSort is the single-level, centralized-splitter baseline (§3).
// The input slice is consumed (partitioned in place); copy it first if
// you still need the original.
func GVSampleSort[E any](c Communicator, data []E, less func(a, b E) bool, seed uint64) ([]E, *Stats) {
	return baseline.GVSampleSort(c, data, less, seed)
}

// MPSort is the MP-sort style single-level baseline (§7.3). The input
// slice is consumed (sorted in place); copy it first if you still need
// the original.
func MPSort[E any](c Communicator, data []E, less func(a, b E) bool, seed uint64) ([]E, *Stats) {
	return baseline.MPSort(c, data, less, seed)
}

// BitonicSort is Batcher's bitonic sort over the PEs (p must be a power
// of two) — the log²p-communication extreme the paper's §1 motivates
// against. The input slice is consumed (sorted in place); copy it first
// if you still need the original.
func BitonicSort[E any](c Communicator, data []E, less func(a, b E) bool, seed uint64) ([]E, *Stats) {
	return baseline.BitonicSort(c, data, less, seed)
}

// HistogramSort is the Solomonik-Kale style single-level hybrid (§3);
// tol is the splitter rank tolerance as a fraction of n/p (≤0: 5%).
// The input slice is consumed (sorted in place); copy it first if you
// still need the original.
func HistogramSort[E any](c Communicator, data []E, less func(a, b E) bool, tol float64, seed uint64) ([]E, *Stats) {
	return baseline.HistogramSort(c, data, less, tol, seed)
}

// HCQuicksort is hypercube parallel quicksort (p must be a power of
// two) — fast but without balance or duplicate-key guarantees. The
// input slice is consumed (sorted in place); copy it first if you still
// need the original.
func HCQuicksort[E any](c Communicator, data []E, less func(a, b E) bool, seed uint64) ([]E, *Stats) {
	return baseline.HCQuicksort(c, data, less, seed)
}

// Multiselect finds, for each target global rank, a split position of
// this PE's locally sorted slice such that the positions sum to the
// target across PEs (multisequence selection, §4.1 — one of the paper's
// building blocks of independent interest). Collective call.
func Multiselect[E any](c Communicator, local []E, targets []int64, less func(a, b E) bool, seed uint64) []int {
	return msel.Select(c, local, targets, less, seed)
}

// Deliver redistributes pieces[j] to the j-th of len(pieces) balanced
// contiguous PE groups so that every group member receives an equal
// share (§4.3); the strategy in opt trades robustness against worst-case
// piece-size distributions. Collective call. Returns the received
// chunks.
func Deliver[E any](c Communicator, pieces [][]E, opt DeliveryOptions) [][]E {
	return delivery.Deliver(c, pieces, opt)
}
