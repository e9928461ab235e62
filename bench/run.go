package main

import (
	"fmt"
	"time"

	"pmsort"
	"pmsort/internal/obs"
)

// runOpts are the settings of one run of one workload.
type runOpts struct {
	workload string
	scale    string // "full" | "tiny"
	plant    string // self-test hook: "", "swap", "drop", "failjob"
	outDir   string
	seed     uint64
	seconds  float64 // how long the run measures
	trace    bool
	probes   bool // traced runs also run the layer probes
}

func (o runOpts) tiny() bool { return o.scale == "tiny" }

// untracedSetups is how many times an untraced run sets up (inputs,
// machine or service, warm-up): setup_s is the median of them, and the
// timed ops are split evenly over them.
const untracedSetups = 3

// A traced run splits its time: ops with tracing off (the source-A
// numbers and the base of obs.overhead_pct), then the same workload
// traced at one fifth of a full run's ops; the probes come on top.
const (
	tracedRunUntracedShare = 0.4
	tracedRunTracedShare   = 0.2
)

// sortN is a one-shot workload's total input size at the run's scale.
func (o runOpts) sortN(full int) int {
	if o.tiny() {
		return 1 << 12
	}
	return full
}

// limit is the timed budget of one segment: a share of the run's seconds
// at full scale, a fixed handful of ops at tiny scale.
func (o runOpts) limit(share float64, tinyOps int) segmentLimit {
	if o.tiny() {
		return segmentLimit{dur: time.Minute, maxOps: tinyOps}
	}
	return segmentLimit{dur: time.Duration(share * o.seconds * float64(time.Second))}
}

// warmup is the number of untimed ops a set-up ends with.
func (o runOpts) warmup(full int) int {
	if o.tiny() {
		return 1
	}
	return full
}

// window is the pooled evidence of one or more timed segments, common to
// one-shot and service workloads.
type window struct {
	setups     []float64
	opNS       []int64
	wallNS     int64 // timed wall time
	attempted  int
	failed     int
	proc       procCounters
	bytesPerOp int
}

// endToEnd fills in the six bounded metrics.
func (w *window) endToEnd(res *runResult) {
	ms := nsToMS(w.opNS)
	ops := float64(len(w.opNS))
	wallS := float64(w.wallNS) / 1e9
	res.attempted, res.failed, res.samples = w.attempted, w.failed, len(w.opNS)
	res.set("setup_s", median(w.setups))
	res.set("op_ms_p50", percentile(ms, 0.50))
	res.set("op_ms_p95", percentile(ms, 0.95))
	res.set("ops_per_s", 0) // a run whose every op failed still reports, as zeros
	res.set("s_per_gb", 0)
	if len(w.opNS) > 0 {
		res.set("ops_per_s", ops/wallS)
		res.set("s_per_gb", wallS/(ops*float64(w.bytesPerOp)/1e9))
	}
	res.set("alloc_mb_per_op", float64(w.proc.allocBytes)/1e6/float64(max(w.attempted, 1)))
	res.note("bytes_per_op %d; op_ms_p95 has %d samples beyond it", w.bytesPerOp, len(ms)-int(0.95*float64(len(ms))))
}

// procMetrics fills in the whole-process per-op costs (source A).
func (w *window) procMetrics(res *runResult) {
	ops := float64(max(w.attempted, 1))
	res.set("proc.cpu_s_per_op", float64(w.proc.cpuNS)/1e9/ops)
	res.set("proc.gc_cycles_per_op", float64(w.proc.gcCycles)/ops)
	res.set("proc.gc_pause_ms_per_op", float64(w.proc.gcPauseNS)/1e6/ops)
	res.set("proc.peak_rss_mb", peakRSSMB())
}

func (w *window) addSortSegment(seg *sortSegment) {
	w.setups = append(w.setups, seg.setupS)
	for _, s := range seg.samples {
		w.opNS = append(w.opNS, s.opNS)
		w.wallNS += s.opNS // one-shot ops run back to back: wall = sum of op times
	}
	w.attempted += seg.attempted
	w.failed += seg.failed
	w.proc = w.proc.add(seg.proc)
}

const sortWarmupOps = 10

func runOneShot[E any](spec sortSpec[E], o runOpts) (*runResult, error) {
	res := newRunResult(spec.name, o.trace)
	res.noProbes = !o.probes
	w := &window{bytesPerOp: o.sortN(spec.n) * spec.elemBytes}
	warmup := o.warmup(sortWarmupOps)
	if !o.trace {
		for i := 0; i < untracedSetups; i++ {
			run, err := startSortRun(spec, o, warmup, nil)
			if err != nil {
				return nil, err
			}
			err = run.measure(o.limit(1.0/untracedSetups, 3))
			run.close()
			if err != nil {
				return nil, err
			}
			w.addSortSegment(run.seg)
		}
		w.endToEnd(res)
		return res, nil
	}

	// The untraced ops (source A) run in two halves around the traced
	// ones (source B), so that drift of the box over the run cancels in
	// obs.overhead_pct.
	plain, err := startSortRun(spec, o, warmup, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	if err := plain.measure(o.limit(tracedRunUntracedShare/2, 2)); err != nil {
		return nil, err
	}
	bt := newBenchTrace(numClusterRanks)
	traced, err := startSortRun(spec, o, warmup, bt)
	if err != nil {
		return nil, err
	}
	err = traced.measure(o.limit(tracedRunTracedShare, 3))
	traced.close()
	if err != nil {
		return nil, err
	}
	if err := plain.measure(o.limit(tracedRunUntracedShare/2, 2)); err != nil {
		return nil, err
	}

	w.addSortSegment(plain.seg)
	w.endToEnd(res) // kept for obs.overhead_pct and the speed-up; a traced run does not print them
	w.procMetrics(res)
	sortReturnMetrics(res, plain.seg.samples)
	res.attempted += traced.seg.attempted
	res.failed += traced.seg.failed
	sortTraceMetrics(res, spec.tcp, traced.seg.samples)
	gatherMS, err := gatherProbe(spec, o)
	if err != nil {
		return nil, err
	}
	res.set("obs.gather_ms", gatherMS)
	if err := writeTraceArtefacts(o.outDir, spec.name, bt.finish(), len(traced.seg.samples)); err != nil {
		return nil, err
	}

	// Source C: the layer probes (or, without them, just the baseline
	// the speed-up is stated against).
	baseMS, err := probesOrBaseline(o, res)
	if err != nil {
		return nil, err
	}
	res.set("core.speedup_vs_baseline", baseMS/res.values["op_ms_p50"])
	return res, nil
}

// medianOf extracts one number per sample and returns the median.
func medianOf[S any](samples []S, f func(S) float64) float64 {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = f(s)
	}
	return median(vals)
}

// sortReturnMetrics: medians over ops of the max over ranks of what
// AMSSort/RLMSort already return.
func sortReturnMetrics(res *runResult, samples []sortSample) {
	phase := func(ph pmsort.Phase) float64 {
		return medianOf(samples, func(s sortSample) float64 { return float64(s.phaseNS[ph]) / 1e6 })
	}
	res.set("core.splitter_selection_ms", phase(pmsort.PhaseSplitterSelection))
	res.set("core.bucket_processing_ms", phase(pmsort.PhaseBucketProcessing))
	res.set("core.data_delivery_ms", phase(pmsort.PhaseDataDelivery))
	res.set("core.local_sort_ms", phase(pmsort.PhaseLocalSort))
	res.set("core.level0_ms", medianOf(samples, func(s sortSample) float64 { return float64(s.levelNS[0]) / 1e6 }))
	if res.workload == wlMultilevelDup {
		res.set("core.level1_ms", medianOf(samples, func(s sortSample) float64 { return float64(s.levelNS[1]) / 1e6 }))
	}
	res.set("core.exchange_share", medianOf(samples, func(s sortSample) float64 {
		return float64(s.phaseNS[pmsort.PhaseDataDelivery]) / float64(max(s.totalNS, 1))
	}))
	var maxImb, outImb float64
	for _, s := range samples {
		maxImb, outImb = max(maxImb, s.maxImb), max(outImb, s.outImb)
	}
	res.set("core.max_imbalance", maxImb)
	res.set("core.output_imbalance", outImb)
	res.set("core.rank_skew_ms", medianOf(samples, func(s sortSample) float64 { return float64(s.skewNS) / 1e6 }))
	var phaseSum float64
	for ph := pmsort.Phase(0); ph < pmsort.NumPhases; ph++ {
		phaseSum += phase(ph)
	}
	totalMS := medianOf(samples, func(s sortSample) float64 { return float64(s.totalNS) / 1e6 })
	res.note("the four core phase medians sum to %.3f ms = %.0f%% of op_ms_p50 %.3f ms; Stats.TotalNS median %.3f ms (rest: Run entry barrier, goroutine start)",
		phaseSum, 100*phaseSum/res.values["op_ms_p50"], res.values["op_ms_p50"], totalMS)
}

// sortTraceMetrics: medians over the traced ops of the recorder spans
// (max over ranks) and the transport counters (summed over ranks).
func sortTraceMetrics(res *runResult, tcp bool, samples []sortSample) {
	span := func(name string) float64 {
		return medianOf(samples, func(s sortSample) float64 { return float64(s.traced.spanNS[name]) / 1e6 })
	}
	ctr := func(name string) float64 {
		return medianOf(samples, func(s sortSample) float64 { return float64(s.traced.counters[name]) })
	}
	setIf := func(metric string, applies bool, v float64) {
		if applies {
			res.set(metric, v)
		}
	}
	ams := amsWorkload(res.workload)
	setIf("core.span.sample_ms", ams, span(obs.SpanSample))
	setIf("core.span.splitter_sort_ms", ams, span(obs.SpanSplitterSort))
	setIf("core.span.classify_ms", ams, span(obs.SpanClassify))
	setIf("core.span.merge_ms", !ams, span(obs.SpanMerge))
	res.set("core.span.exchange_ms", span(obs.SpanExchange))
	res.set("core.span.local_sort_ms", span(obs.SpanLocalSort))
	res.set("core.span.deliver_ms", span(obs.SpanDeliver))
	res.set("coll.emit_ms", ctr(obs.CtrEmitNS)/1e6)
	if ps := span(obs.SpanPieceSort); ps != 0 {
		res.note("unexpected piece-sort spans: %.3f ms per op", ps)
	}
	if tcp {
		res.set("netcomm.frames_per_op", ctr(obs.CtrNetFramesIn))
		res.set("netcomm.writev_calls_per_op", ctr(obs.CtrNetWritevCalls))
		res.set("netcomm.bytes_per_op", ctr(obs.CtrNetWritevBytes))
		res.set("netcomm.bufio_writes_per_op", ctr(obs.CtrNetBufWrites))
		res.set("netcomm.mbox_wait_ms_per_op", ctr(obs.CtrMboxWaitNS)/1e6)
		var depth int64
		for _, s := range samples {
			depth = max(depth, s.traced.counters[obs.CtrMboxDepthMax])
		}
		res.set("netcomm.mbox_depth_max", float64(depth))
	}
	res.set("delivery.msgs_per_rank", medianOf(samples, func(s sortSample) float64 { return float64(s.traced.msgsRank) }))
	res.set("obs.spans_per_op", medianOf(samples, func(s sortSample) float64 { return float64(s.traced.spans) }))
	tracedP50 := medianOf(samples, func(s sortSample) float64 { return float64(s.opNS) / 1e6 })
	res.set("obs.overhead_pct", 100*(tracedP50-res.values["op_ms_p50"])/res.values["op_ms_p50"])
	res.note("traced run: %d ops, op_ms_p50 %.3f ms traced vs %.3f ms untraced", len(samples), tracedP50, res.values["op_ms_p50"])
}

// runWorkload dispatches one run by workload name.
func runWorkload(o runOpts) (*runResult, error) {
	switch o.workload {
	case wlBulkKeyedTCP:
		return runOneShot(bulkKeyedTCP(o.seed), o)
	case wlBulkRLMNative:
		return runOneShot(bulkRLMNative(o.seed), o)
	case wlMultilevelDup:
		return runOneShot(multilevelDupTCP(o.seed), o)
	case wlSvcTinyClosed, wlSvcTinyOpen:
		return runService(o)
	case wlProbes:
		res := newRunResult(wlProbes, true)
		res.attempted = 1 // the probes are one op: they all ran, or the run failed
		return res, runProbes(o, res)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and %q)", o.workload, workloadNames, wlProbes)
}
