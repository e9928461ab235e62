package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"pmsort/internal/coll"
	"pmsort/internal/grouping"
	"pmsort/internal/obs"
	"pmsort/internal/prng"
	"pmsort/internal/seq"
	"pmsort/internal/wire"
	"pmsort/internal/workload"
)

// Probe shapes follow the workloads: one rank's share of the 2^20-key
// runs, the splitter count of a single-level p=4 run (p*b-1), one peer's
// share of a rank's bulk data, and a control-sized message.
const (
	probeElems     = 1 << 18
	probeSplitters = 63
	probeBulkWords = 64 << 10 // 512 KiB of uint64
	probeCtlWords  = 8
	probeSample    = 154 // one rank's sample share at n = 2^20, a = 9.6, b = 16
)

func init() {
	coll.RegisterWire[rec]() // wire.encode_rec_gb_s sends []rec through the codec
}

// prober runs the layer probes (source C): each is a bench span around a
// direct call into a layer's exported function, repeated, median kept.
type prober struct {
	o    runOpts
	res  *runResult
	reps int
	bt   *benchTrace
}

func newProber(o runOpts, res *runResult) *prober {
	p := &prober{o: o, res: res, reps: 30, bt: newBenchTrace(1)}
	if o.tiny() {
		p.reps = 2
	}
	return p
}

// time runs prep (untimed) and fn (timed) reps times and returns the
// median duration of fn in nanoseconds.
func (p *prober) time(name string, reps int, prep, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		if prep != nil {
			prep()
		}
		start := sinceNS(p.bt.t0)
		fn()
		end := sinceNS(p.bt.t0)
		p.bt.add(0, "probe."+name, 1, start, end, int64(i))
		ns[i] = float64(end - start)
	}
	return median(ns)
}

// runProbes measures every source-C metric into res.
func runProbes(o runOpts, res *runResult) error {
	p := newProber(o, res)
	p.seqProbes()
	p.baselineProbe()
	p.wireProbes()
	p.localProbes()
	if err := p.commProbes(); err != nil {
		return err
	}
	return writeTraceArtefacts(o.outDir, wlProbes, p.bt.finish(), p.reps)
}

// probesOrBaseline runs the probes when the run includes them and
// otherwise only the baseline sort; it returns baseline.slices_sort_ms.
func probesOrBaseline(o runOpts, res *runResult) (float64, error) {
	if o.probes {
		if err := runProbes(o, res); err != nil {
			return 0, err
		}
		return res.values["baseline.slices_sort_ms"], nil
	}
	p := newProber(o, newRunResult(wlProbes, true))
	p.baselineProbe()
	return p.res.values["baseline.slices_sort_ms"], nil
}

// splittersOf returns count equidistant splitters of a sorted copy.
func splittersOf[E any](data []E, count int, less func(a, b E) bool) []E {
	sorted := slices.Clone(data)
	seq.Sort(sorted, less)
	out := make([]E, count)
	for i := range out {
		out[i] = sorted[(i+1)*len(sorted)/(count+1)]
	}
	return out
}

func recsOf(keys []uint64) []rec {
	out := make([]rec, len(keys))
	for i, k := range keys {
		out[i] = rec{K: k, V: uint64(i)}
	}
	return out
}

func (p *prober) seqProbes() {
	n := probeElems
	if p.o.tiny() {
		n = 1 << 12
	}
	perElem := func(ns float64) float64 { return ns / float64(n) }
	uniform := workload.Local(workload.Uniform, p.o.seed, 1, n, 0)
	dup := workload.Local(workload.DupHeavy, p.o.seed, 1, n, 0)
	recs := recsOf(workload.Local(workload.Skewed, p.o.seed, 1, n, 0))
	buf := make([]uint64, n)
	rbuf := make([]rec, n)
	scratch := make([]uint64, n)
	ids := make([]uint16, n)
	var pfx []uint64
	var sc seq.PrefixScratch[uint64]
	var rsc seq.PrefixScratch[rec]
	load := func(src []uint64) func() { return func() { copy(buf, src) } }

	p.res.set("seq.sort_keyed_ns_per_elem", perElem(p.time("seq.sort_keyed", p.reps, load(uniform), func() {
		var h seq.KeyedHist
		seq.HistKeyed(buf, u64Key, &h)
		seq.SortKeyedHist(buf, u64Key, scratch, &h)
	})))
	sortPrefixed := func() {
		pfx = seq.ExtractPrefixes(pfx[:0], buf, u64Key)
		seq.SortPrefixed(buf, pfx, u64Less, &sc)
	}
	p.res.set("seq.sort_prefixed_u64_ns_per_elem", perElem(p.time("seq.sort_prefixed_u64", p.reps, load(uniform), sortPrefixed)))
	p.res.set("seq.sort_prefixed_dup_ns_per_elem", perElem(p.time("seq.sort_prefixed_dup", p.reps, load(dup), sortPrefixed)))
	p.res.set("seq.sort_prefixed_rec_ns_per_elem", perElem(p.time("seq.sort_prefixed_rec", p.reps, func() { copy(rbuf, recs) }, func() {
		pfx = seq.ExtractPrefixes(pfx[:0], rbuf, recPrefix)
		seq.SortPrefixed(rbuf, pfx, recLess, &rsc)
	})))
	p.res.set("seq.sort_cmp_ns_per_elem", perElem(p.time("seq.sort_cmp", p.reps, load(uniform), func() { seq.Sort(buf, u64Less) })))

	const nb = probeSplitters + 1
	keyed := seq.NewKeyedClassifier(splittersOf(uniform, probeSplitters, u64Less))
	p.res.set("seq.classify_keyed_ns_per_elem", perElem(p.time("seq.classify_keyed", p.reps, load(uniform), func() {
		seq.ClassifyKeyed(buf, u64Key, keyed, ids)
		seq.PartitionInPlaceIDs(buf, nb, ids)
	})))
	// Duplicate-heavy keys: most elements share a prefix with a splitter,
	// so the comparator fallback over the equal-prefix run is hot.
	dupSplit := splittersOf(dup, probeSplitters, u64Less)
	prefixed := seq.NewPrefixClassifier(dupSplit)
	fallback := func(i, lo, hi int) int { return lo + seq.UpperBound(dupSplit[lo:hi], buf[i], u64Less) }
	p.res.set("seq.classify_prefixed_ns_per_elem", perElem(p.time("seq.classify_prefixed", p.reps, load(dup), func() {
		seq.ClassifyPrefixed(buf, u64Key, prefixed, ids, fallback)
		seq.PartitionInPlaceIDs(buf, nb, ids)
	})))
	cmp := seq.NewClassifier(splittersOf(uniform, probeSplitters, u64Less), u64Less)
	p.res.set("seq.classify_cmp_ns_per_elem", perElem(p.time("seq.classify_cmp", p.reps, load(uniform), func() {
		seq.PartitionInPlace(buf, nb, cmp.Bucket, ids)
	})))

	// Four sorted runs, as a p=4 rank receives them.
	const k = numClusterRanks
	runs := make([][]uint64, k)
	rruns := make([][]rec, k)
	rpfx := make([][]uint64, k)
	for r := 0; r < k; r++ {
		runs[r] = slices.Clone(uniform[r*n/k : (r+1)*n/k])
		slices.Sort(runs[r])
		rruns[r] = slices.Clone(recs[r*n/k : (r+1)*n/k])
		seq.SortStable(rruns[r], recLess)
		rpfx[r] = seq.ExtractPrefixes(nil, rruns[r], recPrefix)
	}
	p.res.set("seq.multiway_ns_per_elem", perElem(p.time("seq.multiway", p.reps, nil, func() {
		seq.MultiwayInto(buf[:0], runs, u64Less)
	})))
	p.res.set("seq.multiway_prefixed_ns_per_elem", perElem(p.time("seq.multiway_prefixed", p.reps, nil, func() {
		seq.MultiwayPrefixedInto(rbuf[:0], rruns, rpfx, recLess)
	})))
}

// baselineProbe: slices.Sort of the whole 2^20-key input on one
// goroutine - the plain single-threaded reference, and a calibration of
// the machine's speed. A third of the usual repetitions: one sort takes
// as long as two ops of bulk_keyed_tcp.
func (p *prober) baselineProbe() {
	n := p.o.sortN(1 << 20)
	input := workload.Local(workload.Uniform, p.o.seed, 1, n, 0)
	buf := make([]uint64, n)
	ns := p.time("baseline.slices_sort", max(p.reps/3, 2), func() { copy(buf, input) }, func() { slices.Sort(buf) })
	p.res.set("baseline.slices_sort_ms", ns/1e6)
}

// concat flattens a vectored encoding into the contiguous frame body a
// receiver would have read off the socket.
func concat(segs [][]byte) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

func (p *prober) wireProbes() {
	bulkWords, inner := probeBulkWords, 200
	if p.o.tiny() {
		bulkWords, inner = 1<<10, 4
	}
	rng := prng.New(p.o.seed)
	bulk := make([]uint64, bulkWords)
	for i := range bulk {
		bulk[i] = rng.Next()
	}
	recs := recsOf(bulk[:bulkWords/2])
	small := slices.Clone(bulk[:probeCtlWords])
	bulkBytes := float64(8 * bulkWords)
	// The transport's own settings (netcomm.writeLoop): aligned bulk
	// blocks sent as views past a 4-byte length prefix, 16 KiB minimum.
	vopt := wire.VecOptions{Aligned: wire.HostLittleEndian(), AlignBase: 4, MinSpan: 16 << 10}
	dopt := wire.DecodeOptions{Aligned: vopt.Aligned, Alias: vopt.Aligned}
	frame := make([]byte, 0, 1<<12)
	mustVec := func(w *wire.Writer, payload any) [][]byte {
		segs, err := w.AppendPayloadVec(append(frame[:0], 0, 0, 0, 0), payload, vopt)
		if err != nil {
			panic(fmt.Sprintf("bench: wire probe: %v", err)) // a bug: the types are registered above
		}
		frame = segs[0][:0] // the transport reuses its frame arena the same way
		return segs
	}
	gbPerS := func(ns float64) float64 { return bulkBytes * float64(inner) / ns }

	w := wire.NewWriter()
	p.res.set("wire.encode_bulk_gb_s", gbPerS(p.time("wire.encode_bulk", p.reps, nil, func() {
		for i := 0; i < inner; i++ {
			mustVec(w, bulk)
		}
	})))
	p.res.set("wire.encode_rec_gb_s", gbPerS(p.time("wire.encode_rec", p.reps, nil, func() {
		for i := 0; i < inner; i++ {
			mustVec(w, recs)
		}
	})))

	// Decoders read what a fresh stream's second frame looks like: the
	// type is interned, so the body starts with its id.
	encodeTwice := func(payload any) []byte {
		w := wire.NewWriter()
		mustVec(w, payload)
		// A copy of its own, as the transport reads a body: 8-aligned, so
		// aligned bulk blocks can be decoded as views of it.
		return slices.Clone(concat(mustVec(w, payload))[4:])
	}
	primed := func(payload any) *wire.Reader {
		r := wire.NewReader()
		w := wire.NewWriter()
		if _, _, _, err := r.DecodePayloadOpt(slices.Clone(concat(mustVec(w, payload))[4:]), dopt); err != nil {
			panic(fmt.Sprintf("bench: wire probe: %v", err))
		}
		return r
	}
	body := encodeTwice(bulk)
	r := primed(bulk)
	decode := func(r *wire.Reader, body []byte, opt wire.DecodeOptions) {
		if _, _, _, err := r.DecodePayloadOpt(body, opt); err != nil {
			panic(fmt.Sprintf("bench: wire probe: %v", err))
		}
	}
	p.res.set("wire.decode_bulk_gb_s", gbPerS(p.time("wire.decode_bulk", p.reps, nil, func() {
		for i := 0; i < inner; i++ {
			decode(r, body, dopt)
		}
	})))
	// Plain mode (no pads, no views): what a big-endian peer's frames and
	// the chaos middleware decode, always by copy.
	pw, pr := wire.NewWriter(), wire.NewReader()
	var plain []byte
	for i := 0; i < 2; i++ { // the second encoding has the type interned
		var err error
		if plain, err = pw.AppendPayload(plain[:0], bulk); err != nil {
			panic(fmt.Sprintf("bench: wire probe: %v", err))
		}
		if i == 0 {
			decode(pr, plain, wire.DecodeOptions{})
		}
	}
	p.res.set("wire.decode_copy_gb_s", gbPerS(p.time("wire.decode_copy", p.reps, nil, func() {
		for i := 0; i < inner; i++ {
			if _, _, err := pr.DecodePayload(plain); err != nil {
				panic(fmt.Sprintf("bench: wire probe: %v", err))
			}
		}
	})))

	smallInner := 50 * inner
	sbody := encodeTwice(small)
	sr := primed(small)
	p.res.set("wire.encode_small_ns", p.time("wire.encode_small", p.reps, nil, func() {
		for i := 0; i < smallInner; i++ {
			mustVec(w, small)
		}
	})/float64(smallInner))
	p.res.set("wire.decode_small_ns", p.time("wire.decode_small", p.reps, nil, func() {
		for i := 0; i < smallInner; i++ {
			decode(sr, sbody, dopt)
		}
	})/float64(smallInner))

	// Heap allocations of one control frame's encode plus decode; whole
	// allocations per frame (like testing.AllocsPerRun), so that a stray
	// allocation elsewhere in the process does not show in the count.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < smallInner; i++ {
		mustVec(w, small)
		decode(sr, sbody, dopt)
	}
	runtime.ReadMemStats(&after)
	p.res.set("wire.allocs_per_frame", float64((after.Mallocs-before.Mallocs)/uint64(smallInner)))
}

// localProbes: the remaining single-goroutine layers.
func (p *prober) localProbes() {
	// 32 buckets (b = 16, r = 2) grouped into 2: the multi-level shape.
	rng := prng.New(p.o.seed)
	sizes := make([]int64, 32)
	for i := range sizes {
		sizes[i] = int64(probeElems/32/2 + rng.Intn(probeElems/32))
	}
	const inner = 1000
	p.res.set("grouping.optimal_l_us", p.time("grouping.optimal_l", p.reps, nil, func() {
		for i := 0; i < inner; i++ {
			grouping.OptimalL(sizes, 2)
		}
	})/inner/1e3)

	const spans = 1 << 14
	start := time.Now()
	enabled := obs.NewRecorder(0, 1, func() int64 { return time.Since(start).Nanoseconds() })
	p.res.set("obs.span_enabled_ns", p.time("obs.span_enabled", p.reps, enabled.Reset, func() {
		for i := 0; i < spans; i++ {
			enabled.Start(obs.SpanSample).End()
		}
	})/spans)
	var disabled *obs.Recorder
	p.res.set("obs.span_disabled_ns", p.time("obs.span_disabled", p.reps, nil, func() {
		for i := 0; i < spans; i++ {
			disabled.Start(obs.SpanSample).End()
		}
	})/spans)
}
