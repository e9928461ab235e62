package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"pmsort"
	"pmsort/internal/obs"
	"pmsort/internal/prng"
	"pmsort/internal/workload"
)

// rec is the 16-byte record of bulk_rlm_native: ordered by K alone, so K
// is an exact prefix and V rides along.
type rec struct {
	K, V uint64
}

// sortSpec describes one one-shot workload for element type E.
type sortSpec[E any] struct {
	name      string
	tcp       bool
	n         int // total elements at full scale
	elemBytes int
	gen       func(seed uint64, p, perPE, rank int) []E
	less      func(a, b E) bool
	hash      func(E) uint64 // multiset hash term; order-independent when summed
	sort      func(c pmsort.Communicator, data []E, cfg pmsort.Config) ([]E, *pmsort.Stats)
	cfg       pmsort.Config
}

func u64Less(a, b uint64) bool { return a < b }
func u64Key(x uint64) uint64   { return x }
func recLess(a, b rec) bool    { return a.K < b.K }
func recPrefix(r rec) uint64   { return r.K }
func recHash(r rec) uint64     { return prng.Mix64(prng.Mix64(r.K)*0x9e3779b97f4a7c15 ^ r.V) }

func u64Gen(kind workload.Kind) func(seed uint64, p, perPE, rank int) []uint64 {
	return func(seed uint64, p, perPE, rank int) []uint64 {
		return workload.Local(kind, seed, p, perPE, rank)
	}
}

func amsU64(c pmsort.Communicator, data []uint64, cfg pmsort.Config) ([]uint64, *pmsort.Stats) {
	return pmsort.AMSSort(c, data, u64Less, cfg)
}

func bulkKeyedTCP(seed uint64) sortSpec[uint64] {
	return sortSpec[uint64]{
		name: wlBulkKeyedTCP, tcp: true, n: 1 << 20, elemBytes: 8,
		gen: u64Gen(workload.Uniform), less: u64Less, hash: prng.Mix64, sort: amsU64,
		cfg: pmsort.Config{Levels: 1, Seed: seed, Key: u64Key},
	}
}

func multilevelDupTCP(seed uint64) sortSpec[uint64] {
	return sortSpec[uint64]{
		name: wlMultilevelDup, tcp: true, n: 1 << 20, elemBytes: 8,
		gen: u64Gen(workload.DupHeavy), less: u64Less, hash: prng.Mix64, sort: amsU64,
		// PlanLevels keeps p <= 16 single-level, so the 2x2 plan is explicit.
		cfg: pmsort.Config{Levels: 2, Rs: []int{2, 2}, Seed: seed, TieBreak: true},
	}
}

func bulkRLMNative(seed uint64) sortSpec[rec] {
	return sortSpec[rec]{
		name: wlBulkRLMNative, tcp: false, n: 1 << 19, elemBytes: 16,
		gen: func(seed uint64, p, perPE, rank int) []rec {
			keys := workload.Local(workload.Skewed, seed, p, perPE, rank)
			out := make([]rec, len(keys))
			for i, k := range keys {
				out[i] = rec{K: k, V: uint64(rank*perPE + i)}
			}
			return out
		},
		less: recLess, hash: recHash,
		sort: func(c pmsort.Communicator, data []rec, cfg pmsort.Config) ([]rec, *pmsort.Stats) {
			return pmsort.RLMSort(c, data, recLess, cfg)
		},
		cfg: pmsort.Config{Levels: 1, Seed: seed, Prefix: recPrefix},
	}
}

// sortSample is what one timed op leaves behind.
type sortSample struct {
	opNS    int64
	skewNS  int64 // last rank done - first rank done
	phaseNS [pmsort.NumPhases]int64
	levelNS [2]int64
	totalNS int64
	maxImb  float64 // Stats.MaxImbalance (group level)
	outImb  float64 // max len(out_r) / ceil(n/p)
	traced  *tracedOp
}

// tracedOp is the per-op evidence of a traced run, read straight off the
// ranks' recorders (they live in this process) after the op.
type tracedOp struct {
	spanNS   map[string]int64 // per span name: max over ranks of the summed duration
	counters map[string]int64 // summed over ranks (depth gauge: max)
	msgsRank int64            // max over ranks of messages received in bulk exchanges
	spans    int64
}

// sortSegment is one set-up plus the timed ops that ran on it.
type sortSegment struct {
	setupS    float64
	samples   []sortSample
	attempted int
	failed    int
	proc      procCounters
}

type segmentLimit struct {
	dur    time.Duration
	maxOps int // 0: no cap
}

// sortHarness holds one set-up: inputs, machine, buffers.
type sortHarness[E any] struct {
	spec   sortSpec[E]
	n      int
	perPE  int
	cl     *cluster
	locals [][]E
	bufs   [][]E
	inHash uint64
	outs   [][]E
	stats  []*pmsort.Stats
	doneNS []int64
	opSeq  uint64 // ops run so far, warm-ups included
	plant  string
	bt     *benchTrace // nil with tracing off
}

func newSortHarness[E any](spec sortSpec[E], n int, seed uint64, topt pmsort.TCPOptions) (*sortHarness[E], error) {
	const p = numClusterRanks
	h := &sortHarness[E]{spec: spec, n: n, perPE: n / p}
	h.locals = make([][]E, p)
	h.bufs = make([][]E, p)
	for rank := range h.locals {
		h.locals[rank] = spec.gen(seed, p, h.perPE, rank)
		h.bufs[rank] = make([]E, h.perPE)
		for _, e := range h.locals[rank] {
			h.inHash += spec.hash(e)
		}
	}
	h.outs = make([][]E, p)
	h.stats = make([]*pmsort.Stats, p)
	h.doneNS = make([]int64, p)
	cl, err := newCluster(spec.tcp, topt)
	if err != nil {
		return nil, err
	}
	h.cl = cl
	return h, nil
}

// op runs one sort on every rank and validates it. The input copies are
// made before t0 and the validation runs after t1: neither is timed.
func (h *sortHarness[E]) op(opID int) (sortSample, error) {
	for rank := range h.bufs {
		copy(h.bufs[rank], h.locals[rank])
	}
	// Every op sorts the same input with its own sampling seed, so a run
	// averages over the sorter's random choices (splitters, pivots) and
	// two runs differ by less than two fixed draws would.
	cfg := h.spec.cfg
	cfg.Seed += h.opSeq
	h.opSeq++
	var s sortSample
	var rankStart, epochNS []int64
	var opStart int64
	if h.bt != nil {
		rankStart = make([]int64, len(h.bufs))
		epochNS = make([]int64, len(h.bufs))
	}
	t0 := time.Now()
	if h.bt != nil {
		// Derived from t0, not read again: opStart+doneNS[rank] is then
		// exactly when the rank was done on the bench clock.
		opStart = t0.Sub(h.bt.t0).Nanoseconds()
	}
	err := h.cl.run(func(c pmsort.Communicator, rank int) {
		if h.bt != nil {
			// The recorder's clock counts from this Run's epoch; remember
			// where that epoch sits on the bench clock. The bench clock is
			// read first: a goroutine descheduled between the two reads
			// then places the recorder's spans early by that delay, never
			// late, so they stay inside [rankStart, done] - which the
			// trace check requires - whatever the scheduler does.
			rankStart[rank] = sinceNS(h.bt.t0)
			epochNS[rank] = rankStart[rank] - c.Cost().Now()
		}
		h.outs[rank], h.stats[rank] = h.spec.sort(c, h.bufs[rank], cfg)
		h.doneNS[rank] = sinceNS(t0)
	})
	s.opNS = sinceNS(t0)
	if err != nil {
		return s, err
	}
	s.skewNS = slices.Max(h.doneNS) - slices.Min(h.doneNS)
	for _, st := range h.stats {
		for ph := range s.phaseNS {
			s.phaseNS[ph] = max(s.phaseNS[ph], st.PhaseNS[ph])
		}
		for lv := range s.levelNS {
			if lv < len(st.LevelPhaseNS) {
				var sum int64
				for _, ns := range st.LevelPhaseNS[lv] {
					sum += ns
				}
				s.levelNS[lv] = max(s.levelNS[lv], sum)
			}
		}
		s.totalNS = max(s.totalNS, st.TotalNS)
		s.maxImb = max(s.maxImb, st.MaxImbalance)
	}
	if h.bt != nil {
		s.traced = h.collectTrace(opID, opStart, s.opNS, rankStart, epochNS)
	}
	h.plantBug()
	s.outImb, err = h.validate()
	return s, err
}

// plantBug damages the output the way the self-test asks, so that the
// validation below is shown to catch it.
func (h *sortHarness[E]) plantBug() {
	first, last := 0, len(h.outs)-1
	for first < last && len(h.outs[first]) == 0 {
		first++
	}
	for last > first && len(h.outs[last]) == 0 {
		last--
	}
	switch h.plant {
	case "swap": // global minimum <-> global maximum
		a, b := h.outs[first], h.outs[last]
		a[0], b[len(b)-1] = b[len(b)-1], a[0]
	case "drop":
		h.outs[last] = h.outs[last][:len(h.outs[last])-1]
	}
}

// validate checks every rank's output sorted, rank boundaries
// non-decreasing, the count and the multiset hash preserved, and the
// largest output within the torture harness's balance bound. It returns
// the output imbalance max|out_r| / ceil(n/p).
func (h *sortHarness[E]) validate() (float64, error) {
	less := h.spec.less
	var total, maxOut int
	var hash uint64
	var prev E
	havePrev := false
	for rank, out := range h.outs {
		for i, e := range out {
			if havePrev && less(e, prev) {
				return 0, fmt.Errorf("order violated at rank %d index %d", rank, i)
			}
			prev, havePrev = e, true
			hash += h.spec.hash(e)
		}
		total += len(out)
		maxOut = max(maxOut, len(out))
	}
	p := len(h.outs)
	if total != h.n {
		return 0, fmt.Errorf("element count changed: %d in, %d out", h.n, total)
	}
	if hash != h.inHash {
		return 0, fmt.Errorf("multiset hash changed: input %#x, output %#x", h.inHash, hash)
	}
	if bound := (h.n/p)*5/2 + 64; maxOut > bound {
		return 0, fmt.Errorf("imbalance: max |out| = %d exceeds bound %d", maxOut, bound)
	}
	return float64(maxOut) / float64((h.n+p-1)/p), nil
}

// collectTrace reads and resets every rank's recorder after an op, and
// files the bench's own op and rank spans plus the recorder's spans on
// the bench clock.
func (h *sortHarness[E]) collectTrace(opID int, opStart, opNS int64, rankStart, epochNS []int64) *tracedOp {
	p := len(h.bufs)
	recs := make([]*obs.Recorder, p)
	for rank := range recs {
		recs[rank] = h.cl.recorder(rank)
	}
	quiesceTransport(recs)
	tr := &tracedOp{spanNS: map[string]int64{}, counters: map[string]int64{}}
	for rank, r := range recs {
		snap := r.Snapshot()
		r.Reset()
		tr.spans += int64(len(snap.Spans))
		perName := map[string]int64{}
		h.bt.add(rank, spanOp, 1, opStart, opStart+opNS, int64(opID))
		h.bt.add(rank, spanRank, 2, rankStart[rank], opStart+h.doneNS[rank], int64(rank))
		for _, sp := range snap.Spans {
			perName[sp.Name] += sp.End - sp.Start
			h.bt.addRec(rank, sp, 3, epochNS[rank])
		}
		for name, ns := range perName {
			tr.spanNS[name] = max(tr.spanNS[name], ns)
		}
		for _, c := range snap.Counters {
			switch c.Name {
			case obs.CtrMboxDepthMax, obs.CtrEmitNS:
				tr.counters[c.Name] = max(tr.counters[c.Name], c.Value)
			default:
				tr.counters[c.Name] += c.Value
			}
		}
		var msgs int64
		for _, peer := range snap.Peers {
			msgs += peer.RecvMsgs
		}
		tr.msgsRank = max(tr.msgsRank, msgs)
	}
	return tr
}

// quiesceTransport waits until every frame counted out has been counted
// in, so the per-op transport counts are exact: a writer bumps its
// counters after the write returns, which can be after the receiver's
// program has finished.
func quiesceTransport(recs []*obs.Recorder) {
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(20 * time.Microsecond) {
		var out, in int64
		for _, r := range recs {
			out += r.Counter(obs.CtrNetFramesOut).Value()
			in += r.Counter(obs.CtrNetFramesIn).Value()
		}
		if out == in {
			return
		}
	}
}

// sortRun is one set-up (inputs, machine, warm-up ops) and the timed ops
// measured on it so far.
type sortRun[E any] struct {
	h   *sortHarness[E]
	seg *sortSegment
}

func startSortRun[E any](spec sortSpec[E], o runOpts, warmup int, bt *benchTrace) (*sortRun[E], error) {
	setupStart := time.Now()
	h, err := newSortHarness(spec, o.sortN(spec.n), o.seed, pmsort.TCPOptions{Obs: bt != nil})
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmup; i++ {
		if _, err := h.op(-1); err != nil {
			h.cl.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	h.plant = o.plant
	h.bt = bt
	if bt != nil {
		for rank := range h.bufs {
			h.cl.recorder(rank).Reset() // drop the warm-up ops' spans
		}
	}
	return &sortRun[E]{h: h, seg: &sortSegment{setupS: time.Since(setupStart).Seconds()}}, nil
}

func (r *sortRun[E]) close() { r.h.cl.close() }

// measure runs timed ops until the limit is reached (always at least one).
func (r *sortRun[E]) measure(lim segmentLimit) error {
	seg := r.seg
	runtime.GC() // every timed window starts from a collected heap
	before := readProcCounters()
	start := time.Now()
	for done := 0; done == 0 || ((lim.maxOps == 0 || done < lim.maxOps) && time.Since(start) < lim.dur); done++ {
		s, err := r.h.op(seg.attempted)
		seg.attempted++
		if err != nil {
			seg.failed++
			fmt.Printf("  %s: op %d FAILED: %v\n", r.h.spec.name, seg.attempted-1, err)
			if r.h.plant == "" && seg.failed >= 3 {
				return fmt.Errorf("%s: giving up after %d failed ops", r.h.spec.name, seg.failed)
			}
			continue
		}
		seg.samples = append(seg.samples, s)
	}
	seg.proc = seg.proc.add(readProcCounters().sub(before))
	return nil
}

// gatherProbe runs one more traced op that ends with the collective
// GatherTrace, the way a user of the obs layer exports a run: it times
// the gather and checks the merged, clock-aligned trace is well formed.
func gatherProbe[E any](spec sortSpec[E], o runOpts) (gatherMS float64, err error) {
	h, err := newSortHarness(spec, o.sortN(spec.n), o.seed, pmsort.TCPOptions{Obs: true})
	if err != nil {
		return 0, err
	}
	defer h.cl.close()
	var samples []float64
	for i := 0; i < 5; i++ {
		for rank := range h.bufs {
			copy(h.bufs[rank], h.locals[rank])
			h.cl.recorder(rank).Reset()
		}
		var trace *obs.Trace
		var ns int64
		err := h.cl.run(func(c pmsort.Communicator, rank int) {
			h.spec.sort(c, h.bufs[rank], h.spec.cfg)
			t0 := time.Now()
			if t := pmsort.GatherTrace(c); t != nil {
				trace, ns = t, time.Since(t0).Nanoseconds()
			}
		})
		if err != nil {
			return 0, err
		}
		if trace == nil {
			return 0, fmt.Errorf("GatherTrace returned no trace on rank 0")
		}
		if err := trace.Validate(); err != nil {
			return 0, fmt.Errorf("gathered trace: %w", err)
		}
		samples = append(samples, float64(ns)/1e6)
	}
	return median(samples), nil
}
