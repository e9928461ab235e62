// Package expt runs the paper's evaluation (§7, Appendix E): weak
// scaling for Table 2 / Figures 7, 8, 12, the overpartitioning sweeps of
// Figures 10 and 11, the §7.3 comparison against single-level sorters,
// the delivery/all-to-all ablations, and the backend comparison. One
// entry, Run, executes a Spec on any backend (simulator, native
// goroutines, in-process TCP loopback mesh); every run validates its
// output (locally sorted, globally ordered across PEs, permutation
// preserved) before reporting times.
package expt

import (
	"fmt"
	"io"
	"time"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/delivery"
	"pmsort/internal/native"
	"pmsort/internal/netcomm"
	"pmsort/internal/seq"
	"pmsort/internal/sim"
	"pmsort/internal/workload"
)

// Algo selects a sorting algorithm.
type Algo int

const (
	// AMS is adaptive multi-level sample sort (§6).
	AMS Algo = iota
	// RLM is recurse-last multiway mergesort (§5).
	RLM
	// MP is the MP-sort style single-level baseline (§7.3).
	MP
	// GV is single-level sample sort with centralized splitters.
	GV
	// Bitonic is Batcher's bitonic sort over the PEs.
	Bitonic
	// Hist is the Solomonik-Kale style histogram sort (§3).
	Hist
	// HCQ is hypercube parallel quicksort (§6's r=O(1) extreme).
	HCQ
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AMS:
		return "AMS-sort"
	case RLM:
		return "RLM-sort"
	case MP:
		return "MP-sort"
	case GV:
		return "GV-sample-sort"
	case Bitonic:
		return "bitonic"
	case Hist:
		return "histogram-sort"
	case HCQ:
		return "hc-quicksort"
	}
	return "invalid"
}

// algoByName is the one table of the short algorithm names the CLIs
// and the job API accept.
var algoByName = map[string]Algo{
	"ams":     AMS,
	"rlm":     RLM,
	"gv":      GV,
	"mp":      MP,
	"bitonic": Bitonic,
	"hist":    Hist,
	"hcq":     HCQ,
}

// ParseAlgo maps a short algorithm name (ams|rlm|gv|mp|bitonic|hist|hcq)
// to its Algo.
func ParseAlgo(name string) (Algo, bool) {
	a, ok := algoByName[name]
	return a, ok
}

// Spec describes one run.
type Spec struct {
	Algo          Algo
	P             int
	PerPE         int
	Levels        int
	Kind          workload.Kind
	Seed          uint64
	Oversampling  float64
	Overpartition int
	Delivery      delivery.Options
	// Keyed enables the ordered-key kernel fast path (Config.Key): the
	// local sort phases run an in-place uint64 MSD radix sort instead
	// of generic pdqsort. The harness supplies the identity key for its
	// uint64 workloads (and the order key for the torture harness's
	// struct elements).
	Keyed bool
	// PrefixMode selects the comparator path's prefix cache (ignored by
	// keyed runs, which use the radix kernel regardless).
	PrefixMode PrefixMode
}

// PrefixMode selects how a comparator-path run uses the prefix cache.
type PrefixMode int

const (
	// PrefixAuto (the zero value) leaves the cache to core's automatic
	// derivation (plus Config.Key reuse on keyed runs).
	PrefixAuto PrefixMode = iota
	// PrefixOff disables the cache (core.Config.NoPrefix): every local
	// kernel runs on the comparator only.
	PrefixOff
	// PrefixCoarse installs a deliberately non-injective Config.Prefix
	// hook (the harness supplies it per element type), exercising the
	// equal-prefix fallbacks of every kernel.
	PrefixCoarse
)

// String names the mode for logs.
func (m PrefixMode) String() string {
	switch m {
	case PrefixAuto:
		return "auto"
	case PrefixOff:
		return "off"
	case PrefixCoarse:
		return "coarse"
	}
	return "invalid"
}

func (spec Spec) config() core.Config {
	return core.Config{
		Levels:        spec.Levels,
		Oversampling:  spec.Oversampling,
		Overpartition: spec.Overpartition,
		Seed:          spec.Seed,
		Delivery:      spec.Delivery,
		NoPrefix:      spec.PrefixMode == PrefixOff,
	}
}

// Result reports one validated run: maxima over the ranks of their
// core.Stats. Times are virtual ns on the simulator and wall-clock ns on
// the real backends.
type Result struct {
	// TotalNS is the makespan of the sort proper (max over PEs, barrier
	// to barrier — input generation and validation excluded).
	TotalNS int64
	// PhaseNS is the per-phase maximum over PEs, accumulated over levels.
	PhaseNS [core.NumPhases]int64
	// LevelPhaseNS is the per-level per-phase maximum over PEs (rows as
	// in Stats.LevelPhaseNS; ragged rank vectors are max-merged row-wise).
	LevelPhaseNS [][core.NumPhases]int64
	// OutImbalance is max_PE |out|·p/n (1 = perfectly balanced output).
	OutImbalance float64
	// LevelImbalance is the largest per-level group imbalance (AMS).
	LevelImbalance float64
	// MaxMsgsRecv is the largest per-PE received-message count of the
	// sort (simulator only — the real backends do not count; 0 there).
	MaxMsgsRecv int64
}

const tagValidate = 0x6f0001

// runAlgo dispatches the spec's algorithm on any backend.
func runAlgo(c comm.Communicator, spec Spec, data []uint64) ([]uint64, *core.Stats) {
	less := func(a, b uint64) bool { return a < b }
	var key func(uint64) uint64
	if spec.Keyed {
		key = func(x uint64) uint64 { return x }
	}
	// The coarse hook drops the low byte: order-preserving, heavily
	// non-injective on the small-range workloads.
	return runAlgoE(c, spec, data, less, key, func(x uint64) uint64 { return x >> 8 })
}

// validate panics unless out is this PE's slice of a globally sorted
// permutation of the input. Collective; backend-neutral.
func validate(c comm.Communicator, inCount int64, out []uint64) {
	less := func(a, b uint64) bool { return a < b }
	if !seq.IsSorted(out, less) {
		panic(fmt.Sprintf("expt: PE %d output not locally sorted", c.Rank()))
	}
	// Count preservation.
	totalIn := coll.Allreduce(c, inCount, 1, func(a, b int64) int64 { return a + b })
	totalOut := coll.Allreduce(c, int64(len(out)), 1, func(a, b int64) int64 { return a + b })
	if totalIn != totalOut {
		panic(fmt.Sprintf("expt: element count changed %d -> %d", totalIn, totalOut))
	}
	// Boundary order: my max must not exceed the next PE's min.
	var myMax uint64
	if len(out) > 0 {
		myMax = out[len(out)-1]
	}
	// Propagate the running maximum left-to-right so empty PEs pass
	// their predecessor's max along.
	if c.Rank() > 0 {
		pl, _ := c.Recv(c.Rank()-1, tagValidate)
		prevMax := pl.(uint64)
		if len(out) > 0 && out[0] < prevMax {
			panic(fmt.Sprintf("expt: PE %d starts below PE %d's max", c.Rank(), c.Rank()-1))
		}
		if len(out) == 0 || myMax < prevMax {
			myMax = prevMax
		}
	}
	if c.Rank() < c.Size()-1 {
		c.Send(c.Rank()+1, tagValidate, myMax, 1)
	}
}

// RunOn generates this PE's workload slice, sorts it with the spec's
// algorithm on the given communicator, and validates the result —
// backend-neutral, so the rank processes of a real TCP cluster
// (cmd/sortnode) share the exact code path of the in-process backends.
// Collective call.
func RunOn(c comm.Communicator, spec Spec) ([]uint64, *core.Stats) {
	data := workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, c.Rank())
	return RunData(c, spec, data)
}

// RunData sorts caller-supplied per-PE data with the spec's algorithm
// and validates the result (locally sorted, globally ordered, count
// preserved) before returning it — the entry point for callers that
// bring their own input, like the sort service's raw-key jobs
// (internal/svc). The input slice is consumed. Collective call; spec's
// workload fields (Kind, Seed, PerPE) are ignored.
func RunData(c comm.Communicator, spec Spec, data []uint64) ([]uint64, *core.Stats) {
	inCount := int64(len(data))
	out, st := runAlgo(c, spec, data)
	validate(c, inCount, out)
	return out, st
}

// BackendNames lists the machines a Spec can run on: the α-β simulator
// (virtual time), the native goroutine cluster, and an in-process TCP
// loopback mesh — one netcomm.Machine per rank, real sockets in between,
// one process (multi-process runs are cmd/sortnode -launch).
var BackendNames = []string{"sim", "native", "tcp"}

// backendOpts are the optional extras of one onBackend machine.
type backendOpts struct {
	// obs attaches a recorder to every rank (reach it with obs.From).
	obs bool
	// net supplies per-rank transport options on the tcp backend — the
	// netfault seam of the torture harness (nil: plain options).
	net func(rank int) netcomm.Options
}

// onBackend brings up a fresh p-rank machine of the named backend, runs
// fn on every rank, and tears it down. A rank that panics — a failed
// validation, a sorter precondition, a transport failure — unwinds its
// peers (comm.RunPEs in process, the closing mesh on tcp) and comes back
// as the error; an unknown backend name is an error too.
func onBackend(backend string, p int, o backendOpts, fn func(c comm.Communicator)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s backend: %v", backend, r)
		}
	}()
	switch backend {
	case "sim":
		m := sim.NewDefault(p)
		if o.obs {
			m.EnableObs()
		}
		m.Run(func(pe *sim.PE) { fn(sim.World(pe)) })
	case "native":
		m := native.New(p)
		if o.obs {
			m.EnableObs()
		}
		m.Run(fn)
	case "tcp":
		return netcomm.LocalClusterOpts(p, 30*time.Second, func(rank int) netcomm.Options {
			var opt netcomm.Options
			if o.net != nil {
				opt = o.net(rank)
			}
			opt.Obs = o.obs
			return opt
		}, func(m *netcomm.Machine, _ int) error {
			_, err := m.Run(fn)
			return err
		})
	default:
		return fmt.Errorf("expt: unknown backend %q (want sim, native, or tcp)", backend)
	}
	return nil
}

// ReserveLoopbackAddrs picks p currently free loopback addresses; see
// netcomm.ReserveLoopbackAddrs (kept here as an alias for the tools
// that import only expt).
func ReserveLoopbackAddrs(p int) ([]string, error) {
	return netcomm.ReserveLoopbackAddrs(p)
}

// Run executes one run of the spec on the named backend (see BackendNames)
// and aggregates the ranks' statistics. The ranks validate the output
// collectively, as RunOn does; a run that is not a globally sorted
// permutation of its input comes back as an error.
func Run(backend string, spec Spec) (Result, error) {
	var res Result
	stats := make([]*core.Stats, spec.P)
	outLens := make([]int64, spec.P)
	msgs := make([]int64, spec.P)
	err := onBackend(backend, spec.P, backendOpts{}, func(c comm.Communicator) {
		rank := c.Rank()
		data := workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, rank)
		inCount := int64(len(data))
		out, st := runAlgo(c, spec, data)
		stats[rank], outLens[rank] = st, int64(len(out))
		// Snapshot before validating: its messages are not the sort's.
		if pe, ok := comm.Capability[*sim.PE](c); ok {
			msgs[rank] = pe.MsgsRecv
		}
		validate(c, inCount, out)
	})
	if err != nil {
		return res, err
	}
	for rank, st := range stats {
		res.absorb(st, outLens[rank], msgs[rank], spec)
	}
	return res, nil
}

// absorb folds one rank's outcome into the aggregate: maxima over ranks
// of the times, the level imbalance, the received-message count, and the
// output imbalance max_PE |out|·p/n.
func (res *Result) absorb(st *core.Stats, outLen, msgsRecv int64, spec Spec) {
	res.TotalNS = max(res.TotalNS, st.TotalNS)
	for ph := range res.PhaseNS {
		res.PhaseNS[ph] = max(res.PhaseNS[ph], st.PhaseNS[ph])
	}
	for len(res.LevelPhaseNS) < len(st.LevelPhaseNS) {
		res.LevelPhaseNS = append(res.LevelPhaseNS, [core.NumPhases]int64{})
	}
	for lv, row := range st.LevelPhaseNS {
		for ph := range row {
			res.LevelPhaseNS[lv][ph] = max(res.LevelPhaseNS[lv][ph], row[ph])
		}
	}
	res.LevelImbalance = max(res.LevelImbalance, st.MaxImbalance)
	res.MaxMsgsRecv = max(res.MaxMsgsRecv, msgsRecv)
	if n := int64(spec.P) * int64(spec.PerPE); n > 0 {
		res.OutImbalance = max(res.OutImbalance, float64(outLen)*float64(spec.P)/float64(n))
	}
}

// runReps runs the spec `reps` times on the simulator with varied
// seeds. The simulator is deterministic and its sorters are pinned by
// the conformance suites, so a failed run is a bug: it panics.
func runReps(spec Spec, reps int, progress io.Writer) []Result {
	out := make([]Result, reps)
	for i := 0; i < reps; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)*0x1000003
		if progress != nil {
			fmt.Fprintf(progress, "# %-9v p=%-6d n/p=%-7d k=%d rep %d/%d\n",
				spec.Algo, spec.P, spec.PerPE, spec.Levels, i+1, reps)
		}
		res, err := Run("sim", s)
		if err != nil {
			panic(err)
		}
		out[i] = res
	}
	return out
}
