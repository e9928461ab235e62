// Torture harness: property-based conformance testing of every sorter
// on every backend under the chaos middleware (internal/chaos). One
// uint64 seed derives a complete randomized scenario — sorter, PE
// count, per-PE input size, input distribution, level/oversampling/
// overpartitioning/delivery configuration, and element type — and the
// harness executes it on the simulated and native backends (plus, for a
// fraction of cases, a real in-process TCP loopback cluster) with
// schedule shaking and forced serialization, asserting the paper's
// invariants:
//
//   - the output is globally sorted;
//   - the output is a permutation of the input (order-independent
//     multiset hash and element count);
//   - the partition imbalance stays within the sorter's bound (AMS:
//     configured ε-style bound; RLM: perfect balance);
//   - backends agree byte-for-byte;
//   - the chaos audit is clean (no contract violations, and the
//     middleware demonstrably engaged).
//
// A failure reproduces from its seed alone:
//
//	sortbench -experiment torture -seed N
package expt

import (
	"fmt"
	"io"
	"reflect"
	"sync"
	"time"

	"pmsort/internal/baseline"
	"pmsort/internal/chaos"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/delivery"
	"pmsort/internal/netcomm"
	"pmsort/internal/netfault"
	"pmsort/internal/prng"
	"pmsort/internal/workload"
)

// TortureCase is one fully derived torture scenario.
type TortureCase struct {
	Seed uint64
	Spec Spec
	// Pair selects the two-field struct element type (sorted by a
	// tie-heavy key, carrying a payload field) instead of bare uint64 —
	// this drives the structural wire codec through every message.
	Pair bool
	// TCP adds a real in-process TCP loopback cluster as a third
	// backend for this case (small p only; rendezvous dominates).
	TCP bool
	// NetFault runs the TCP leg under a mild seeded netfault profile —
	// latency, jitter, torn writes, and sub-window read stalls, with
	// heartbeats on — so conformance is continuously checked on a mesh
	// that delays, fragments, and hiccups but must still sort
	// correctly. The fault schedule derives from Seed (per-rank).
	NetFault bool
	// Chaos is the middleware seed (distinct from Spec.Seed so the
	// injected schedule varies independently of the data).
	Chaos uint64
}

// String renders the case compactly for logs and failure messages.
func (tc TortureCase) String() string {
	elem := "u64"
	if tc.Pair {
		elem = "pair"
	}
	backends := "sim+native"
	if tc.TCP {
		backends += "+tcp"
	}
	if tc.NetFault {
		backends += "/fault"
	}
	if tc.Spec.Keyed {
		elem += "/keyed"
	}
	exch := "stream"
	if tc.Spec.Delivery.Batch {
		exch = "batch"
	}
	return fmt.Sprintf("seed=%d %v p=%d n/p=%d kind=%v k=%d a=%g b=%d dlv=%v/%d/%s elem=%s pfx=%v %s",
		tc.Seed, tc.Spec.Algo, tc.Spec.P, tc.Spec.PerPE, tc.Spec.Kind, tc.Spec.Levels,
		tc.Spec.Oversampling, tc.Spec.Overpartition, tc.Spec.Delivery.Strategy,
		tc.Spec.Delivery.Exchange, exch, elem, tc.Spec.PrefixMode, backends)
}

// tortureAlgos is the sweep's sorter population. Power-of-two-only
// sorters are marked so the PE count can respect their requirement.
var tortureAlgos = []struct {
	algo Algo
	pow2 bool
}{
	{AMS, false}, {AMS, false}, {AMS, false}, // weighted: AMS is the paper's centerpiece
	{RLM, false}, {RLM, false},
	{GV, false}, {MP, false}, {Hist, false},
	{Bitonic, true}, {HCQ, true},
}

// DeriveTorture expands one seed into a torture case. The derivation is
// pure: equal seeds give equal cases on every machine, which is what
// makes `sortbench -experiment torture -seed N` a one-line repro.
func DeriveTorture(seed uint64) TortureCase {
	rng := prng.New(seed ^ 0x7027_15ee_76c4_a1b3)
	pick := tortureAlgos[rng.Intn(len(tortureAlgos))]
	var p int
	if pick.pow2 {
		p = 1 << rng.Intn(4) // 1, 2, 4, 8
	} else {
		p = 1 + rng.Intn(10) // 1..10
	}
	perPEs := []int{1, 3, 17, 64, 150, 300}
	kinds := []workload.Kind{
		workload.Uniform, workload.Skewed, workload.DupHeavy,
		workload.Sorted, workload.Reverse, workload.AlmostSorted,
		workload.OnePE,
	}
	oversampling := []float64{0, 0, 1.5, 3}
	overpartition := []int{0, 0, 1, 4, 32}
	tc := TortureCase{
		Seed: seed,
		Spec: Spec{
			Algo:          pick.algo,
			P:             p,
			PerPE:         perPEs[rng.Intn(len(perPEs))],
			Levels:        1 + rng.Intn(3),
			Kind:          kinds[rng.Intn(len(kinds))],
			Seed:          rng.Next(),
			Oversampling:  oversampling[rng.Intn(len(oversampling))],
			Overpartition: overpartition[rng.Intn(len(overpartition))],
			// TieBreak is always on: the sweep includes duplicate-heavy
			// inputs, where AMS's balance bound requires it (App. D).
			TieBreak: true,
			Delivery: delivery.Options{
				Strategy: delivery.Strategy(rng.Intn(4)),
				Exchange: delivery.Exchange(rng.Intn(2)),
				Seed:     rng.Next(),
			},
		},
		Pair:  rng.Intn(3) == 0,
		Chaos: rng.Next(),
	}
	// The keyed-kernel dimension: a third of the cases run the radix
	// fast path (Config.Key) instead of the comparator kernels, so the
	// sweep continuously cross-checks the two local-sort paths against
	// each other through the byte-identity and multiset invariants.
	tc.Spec.Keyed = rng.Intn(3) == 0
	// A TCP loopback cluster per case is expensive (rendezvous, real
	// sockets); run it on a sixth of the small-p cases.
	tc.TCP = p <= 4 && rng.Intn(6) == 0
	// The exchange-consumption dimension: half the cases route the
	// sorters through the original materialize-then-process delivery
	// (Batch) instead of the streaming consumers, so the cross-backend
	// byte-identity invariant continuously cross-checks the two data
	// paths against each other — on top of the direct batch-vs-stream
	// delivery check every case runs (tortureDeliveryCheck).
	tc.Spec.Delivery.Batch = rng.Intn(2) == 0
	// The prefix-cache dimension (comparator path only; keyed cases run
	// the radix kernel regardless): a third of the cases disable the
	// cache, a third run the auto-derived hook, a third a deliberately
	// coarse hook with heavy prefix collisions. Every non-keyed case
	// additionally re-runs natively with the cache toggled and demands
	// byte-identical output (tortureRun).
	tc.Spec.PrefixMode = PrefixMode(rng.Intn(3))
	// The network-fault dimension: half the TCP legs run under the mild
	// netfault profile (tortureTCP). The draw happens unconditionally —
	// and this dimension sits last — so every earlier field of every
	// seed's case is unchanged by its introduction.
	tc.NetFault = rng.Intn(2) == 0 && tc.TCP
	return tc
}

// Pair is the torture harness's struct element type: ordered by a
// tie-heavy key K, carrying an unordered payload T. Sorting Pairs under
// forced serialization drives the structural wire codec (not just the
// []uint64 bulk fast path) through every message of every sorter.
type Pair struct {
	K, T uint64
}

func pairLess(a, b Pair) bool { return a.K < b.K }

// tortureBackends names the backend legs a case runs.
func tortureBackends(tc TortureCase) []string {
	bs := []string{"sim", "native"}
	if tc.TCP {
		bs = append(bs, "tcp")
	}
	return bs
}

// RunTorture executes one derived case and returns a one-line summary.
// Any invariant breach comes back as an error naming the seed.
func RunTorture(tc TortureCase) (string, error) {
	var err error
	if tc.Pair {
		err = tortureRun(tc, func(k uint64) Pair {
			// K compresses the key space 4:1 so every distribution gains
			// extra ties while keeping its shape; T keeps the original
			// key so the multiset hash still sees full entropy.
			return Pair{K: k / 4, T: k}
		}, pairLess, func(e Pair) uint64 {
			return prng.Mix64(prng.Mix64(e.K)*0x9e3779b97f4a7c15 ^ e.T)
		}, func(e Pair) uint64 { return e.K },
			// Coarse prefix: collapses another 2 key bits, so distinct K
			// values collide and every equal-prefix fallback fires.
			func(e Pair) uint64 { return e.K >> 2 })
	} else {
		err = tortureRun(tc, func(k uint64) uint64 { return k },
			func(a, b uint64) bool { return a < b }, prng.Mix64,
			func(e uint64) uint64 { return e },
			func(e uint64) uint64 { return e >> 8 })
	}
	if err != nil {
		return "", fmt.Errorf("%w\nrepro: sortbench -experiment torture -seed %d", err, tc.Seed)
	}
	return tc.String(), nil
}

// runAlgoE dispatches the spec's sorter for any element type. key is
// the Config.Key hook installed when spec.Keyed is set (nil disables
// the keyed kernel regardless of spec.Keyed; only AMS/RLM consume it).
// coarse is the non-injective Config.Prefix hook installed under
// PrefixCoarse (nil falls back to automatic derivation).
func runAlgoE[E any](c comm.Communicator, spec Spec, data []E, less func(a, b E) bool, key func(E) uint64, coarse func(E) uint64) ([]E, *core.Stats) {
	cfg := spec.config()
	if spec.Keyed && key != nil {
		cfg.Key = key
	}
	if spec.PrefixMode == PrefixCoarse && coarse != nil {
		cfg.Prefix = coarse
	}
	switch spec.Algo {
	case AMS:
		return core.AMSSort(c, data, less, cfg)
	case RLM:
		return core.RLMSort(c, data, less, cfg)
	case MP:
		return baseline.MPSort(c, data, less, spec.Seed)
	case GV:
		return baseline.GVSampleSort(c, data, less, spec.Seed)
	case Bitonic:
		return baseline.BitonicSort(c, data, less, spec.Seed)
	case Hist:
		return baseline.HistogramSort(c, data, less, 0.05, spec.Seed)
	case HCQ:
		return baseline.HCQuicksort(c, data, less, spec.Seed)
	default:
		panic("expt: unknown algorithm")
	}
}

// tortureRun executes tc for one element type and checks every
// invariant. mk maps a workload key to an element, hash is the
// order-independent per-element hash of the multiset check, key is the
// Config.Key hook used when the case runs the keyed kernel, and coarse
// is the non-injective Config.Prefix hook of PrefixCoarse cases.
func tortureRun[E any](tc TortureCase, mk func(k uint64) E, less func(a, b E) bool, hash func(E) uint64, key func(E) uint64, coarse func(E) uint64) error {
	spec := tc.Spec
	locals := make([][]E, spec.P)
	var n int64
	var inHash uint64
	for rank := range locals {
		keys := workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, rank)
		if keys == nil {
			continue // OnePE: ranks >0 start with nil input
		}
		loc := make([]E, len(keys))
		for i, k := range keys {
			loc[i] = mk(k)
			inHash += hash(loc[i])
		}
		locals[rank] = loc
		n += int64(len(loc))
	}

	outs := make(map[string][][]E)
	for _, backend := range tortureBackends(tc) {
		out, aud, err := tortureBackendRun(tc, backend, locals, less, key, coarse)
		if err != nil {
			return fmt.Errorf("torture %s: backend %s: %w", tc, backend, err)
		}
		if vs := aud.Violations(); len(vs) > 0 {
			return fmt.Errorf("torture %s: backend %s: %d chaos violations, first: %v", tc, backend, len(vs), vs[0])
		}
		// The middleware must demonstrably have engaged: in-process
		// backends serialize every non-self message, and any backend
		// with communication draws schedule perturbations.
		if msgs, _, _ := aud.Messages(); msgs == 0 && spec.P > 1 && backend != "tcp" {
			return fmt.Errorf("torture %s: backend %s: forced serialization saw no messages", tc, backend)
		}
		if err := tortureCheck(tc, out, n, inHash, less, hash); err != nil {
			return fmt.Errorf("torture %s: backend %s: %w", tc, backend, err)
		}
		outs[backend] = out
	}

	// Cross-backend byte identity: every backend must place every
	// element identically.
	for _, backend := range tortureBackends(tc)[1:] {
		if !reflect.DeepEqual(outs[backend], outs["sim"]) {
			return fmt.Errorf("torture %s: %s output differs from sim", tc, backend)
		}
	}

	// The prefix-cache byte-identity invariant: re-run the case natively
	// with the cache toggled (off ↔ on) and demand identical output —
	// the prefix kernels must be invisible in the bytes, tie-heavy
	// element types included. Keyed cases skip it (the radix kernel
	// ignores the cache), as do the baselines (only AMS/RLM consume
	// it). TCP identity for the flipped mode follows by transitivity
	// from the cross-backend check above.
	if !spec.Keyed && (spec.Algo == AMS || spec.Algo == RLM) {
		alt := tc
		if alt.Spec.PrefixMode == PrefixOff {
			alt.Spec.PrefixMode = PrefixAuto
		} else {
			alt.Spec.PrefixMode = PrefixOff
		}
		out, _, err := tortureBackendRun(alt, "native", locals, less, key, coarse)
		if err != nil {
			return fmt.Errorf("torture %s: prefix-toggled leg (pfx=%v): %w", tc, alt.Spec.PrefixMode, err)
		}
		if !reflect.DeepEqual(out, outs["sim"]) {
			return fmt.Errorf("torture %s: prefix-toggled output (pfx=%v) differs — prefix path is not byte-identical", tc, alt.Spec.PrefixMode)
		}
	}

	// The exchange dimension, checked directly: batch and streamed
	// deliveries of one seeded piece cut must be byte-identical on every
	// backend leg, and all legs must agree on the delivered bytes.
	if err := tortureDeliveryCheck(tc, locals); err != nil {
		return fmt.Errorf("torture %s: %w", tc, err)
	}
	return nil
}

// tortureDeliveryCheck runs delivery.Deliver (the batch reference) and
// delivery.DeliverStream (collected in rank order) back to back over
// the case's locals, cut into a seeded number of pieces per PE, on
// every backend leg of the case — sim, native, and (for TCP cases) a
// real loopback cluster. It asserts that the two paths deliver
// identical chunk lists on each backend, and that the delivered
// concatenations agree across backends (chunk boundaries legitimately
// differ: zero-copy backends coalesce adjacent spans, serializing ones
// cannot).
func tortureDeliveryCheck[E any](tc TortureCase, locals [][]E) error {
	spec := tc.Spec
	p := spec.P
	rng := prng.New(tc.Seed ^ 0x5eed_0dd5)
	r := 1 + int(rng.Next()%uint64(p))
	opt := spec.Delivery
	opt.Seed = rng.Next()

	// Deterministic per-rank piece cut (balanced boundaries).
	cut := func(rank int) [][]E {
		data := locals[rank]
		pieces := make([][]E, r)
		prev := 0
		for j := 0; j < r-1; j++ {
			next := prev + (len(data)-prev)/(r-j)
			pieces[j] = data[prev:next]
			prev = next
		}
		pieces[r-1] = data[prev:]
		return pieces
	}

	type rankResult struct {
		batch, stream [][]E
	}
	runLeg := func(backend string) ([]rankResult, error) {
		res := make([]rankResult, p)
		var mu sync.Mutex
		err := tortureLeg(tc, backend, func(c comm.Communicator) {
			rank := c.Rank()
			batch := delivery.Deliver(c, cut(rank), opt)
			sopt := opt
			sopt.Batch = false
			bySrc := make([][][]E, p)
			delivery.DeliverStream(c, cut(rank), sopt, func(src int, chunks [][]E) { bySrc[src] = chunks })
			var stream [][]E
			for _, chs := range bySrc {
				stream = append(stream, chs...)
			}
			mu.Lock()
			res[rank] = rankResult{batch: batch, stream: stream}
			mu.Unlock()
		})
		return res, err
	}

	flatten := func(chunks [][]E) []E {
		var out []E
		for _, ch := range chunks {
			out = append(out, ch...)
		}
		return out
	}

	var simFlat [][]E
	for _, backend := range tortureBackends(tc) {
		res, err := runLeg(backend)
		if err != nil {
			return fmt.Errorf("delivery check (%s): %w", backend, err)
		}
		for rank, rr := range res {
			if !reflect.DeepEqual(rr.batch, rr.stream) {
				return fmt.Errorf("delivery check (%s): rank %d streamed chunks differ from batch (r=%d, %v)", backend, rank, r, opt.Strategy)
			}
		}
		if backend == "sim" {
			simFlat = make([][]E, p)
			for rank, rr := range res {
				simFlat[rank] = flatten(rr.batch)
			}
			continue
		}
		for rank, rr := range res {
			if !reflect.DeepEqual(flatten(rr.batch), simFlat[rank]) {
				return fmt.Errorf("delivery check (%s): rank %d delivered bytes differ from sim", backend, rank)
			}
		}
	}
	return nil
}

// tortureBackendRun sorts the locals on one backend under chaos.
func tortureBackendRun[E any](tc TortureCase, backend string, locals [][]E, less func(a, b E) bool, key func(E) uint64, coarse func(E) uint64) ([][]E, *chaos.Audit, error) {
	spec := tc.Spec
	aud := &chaos.Audit{}
	ccfg := chaos.Config{
		Seed:  tc.Chaos,
		Shake: true,
		// Serialization is forced only where payloads otherwise move by
		// reference; the TCP backend serializes for real already.
		ForceSerialize: backend != "tcp",
		Audit:          aud,
		OnViolation:    func(chaos.Violation) {}, // collect, don't panic
	}
	outs := make([][]E, spec.P)
	var mu sync.Mutex // guards outs writes from rank goroutines (tcp)
	run := func(c comm.Communicator) {
		out, _ := runAlgoE(chaos.Wrap(c, ccfg), spec, append([]E(nil), locals[c.Rank()]...), less, key, coarse)
		mu.Lock()
		outs[c.Rank()] = out
		mu.Unlock()
	}

	// Watchdog: a dying PE unwinds its peers (onBackend), but a sorter
	// whose PEs all block in Recv on each other would wedge the leg,
	// turning a failing case into a hang. Cases are tiny and
	// deterministic — normal runs finish in milliseconds — so a generous
	// deadline converts the wedge into the promised seed-naming error.
	done := make(chan error, 1)
	go func() { done <- tortureLeg(tc, backend, run) }()
	select {
	case err := <-done:
		if err != nil {
			return nil, nil, err
		}
	case <-time.After(tortureDeadline):
		// The wedged PE goroutines are leaked deliberately: the harness
		// is about to fail the whole run with the repro seed anyway.
		return nil, nil, fmt.Errorf("deadlocked (no progress for %v) — some PEs likely died while others wait on them", tortureDeadline)
	}
	return outs, aud, nil
}

// tortureDeadline bounds one backend leg of one case. Cases are small
// (p ≤ 10, n ≤ a few thousand) and finish in well under a second; the
// slack covers race-instrumented CI and TCP rendezvous.
const tortureDeadline = 2 * time.Minute

// tortureLeg runs fn on every rank of one backend leg of the case. The
// tcp leg of a NetFault case wraps every rank's connections in a seeded
// injector with a mild profile — every fault it fires must be
// survivable (stalls stay well under the stall window, no resets), so
// the sort invariants still hold; the heartbeat machinery runs
// alongside to prove liveness monitoring does not perturb results.
func tortureLeg(tc TortureCase, backend string, fn func(c comm.Communicator)) error {
	p := tc.Spec.P
	if backend != "tcp" || !tc.NetFault {
		return onBackend(backend, p, backendOpts{}, fn)
	}
	prof := netfault.Profile{
		Latency:         50 * time.Microsecond,
		Jitter:          200 * time.Microsecond,
		MaxWriteChunk:   512,
		StallEveryBytes: 16 << 10,
		StallDuration:   2 * time.Millisecond,
	}
	injs := make([]*netfault.Injector, p)
	for rank := range injs {
		// One injector per machine; forking the case seed per rank keeps
		// the whole scenario a pure function of tc.Seed.
		injs[rank] = netfault.New(tc.Seed^(uint64(rank+1)<<48), prof)
	}
	err := onBackend(backend, p, backendOpts{net: func(rank int) netcomm.Options {
		return netcomm.Options{
			HeartbeatInterval: 50 * time.Millisecond,
			StallWindow:       20 * time.Second, // generous: injected stalls are 2ms
			WrapConn:          injs[rank].Wrap,
		}
	}}, fn)
	if err != nil {
		return err
	}
	// Engagement check, like chaos's: a fault leg whose injector never
	// fired proves nothing.
	if p > 1 {
		var fired int64
		for _, in := range injs {
			s := in.Stats()
			fired += s.Delays + s.ShortWrites + s.Stalls
		}
		if fired == 0 {
			return fmt.Errorf("netfault leg: injector never fired (%v)", injs[0])
		}
	}
	return nil
}

// tortureCheck asserts the single-backend invariants: global order,
// multiset preservation, and the sorter's balance bound.
func tortureCheck[E any](tc TortureCase, outs [][]E, n int64, inHash uint64, less func(a, b E) bool, hash func(E) uint64) error {
	var total, maxOut, minOut int64
	minOut = 1<<63 - 1
	var outHash uint64
	var prev E
	havePrev := false
	for rank, out := range outs {
		for i, e := range out {
			if havePrev && less(e, prev) {
				return fmt.Errorf("global order violated at PE %d index %d", rank, i)
			}
			prev, havePrev = e, true
			outHash += hash(e)
		}
		l := int64(len(out))
		total += l
		if l > maxOut {
			maxOut = l
		}
		if l < minOut {
			minOut = l
		}
	}
	if total != n {
		return fmt.Errorf("element count changed: %d in, %d out", n, total)
	}
	if outHash != inHash {
		return fmt.Errorf("multiset hash changed: input %#x, output %#x", inHash, outHash)
	}

	p := int64(tc.Spec.P)
	switch tc.Spec.Algo {
	case AMS:
		// ε-style bound: with tie-breaking on, AMS keeps the largest
		// output within a constant factor of n/p plus quantization slack
		// (small n is dominated by per-level rounding).
		if bound := (n/p)*5/2 + 64; maxOut > bound {
			return fmt.Errorf("AMS imbalance: max |out| = %d exceeds bound %d (n/p = %d)", maxOut, bound, n/p)
		}
	case RLM:
		// RLM's multisequence selection hits exact global ranks: the
		// output is perfectly balanced (sizes differ by at most one).
		if maxOut-minOut > 1 {
			return fmt.Errorf("RLM balance: outputs range %d..%d, want spread ≤ 1", minOut, maxOut)
		}
	}
	return nil
}

// Torture runs `count` torture cases derived from consecutive seeds
// starting at `seed`, writing one line per case. It returns the first
// failure (the line already names the repro seed).
func Torture(w io.Writer, seed uint64, count int, progress io.Writer) error {
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		tc := DeriveTorture(seed + uint64(i))
		if progress != nil {
			fmt.Fprintf(progress, "# torture %s\n", tc)
		}
		line, err := RunTorture(tc)
		if err != nil {
			fmt.Fprintf(w, "FAIL %v\n", err)
			return err
		}
		fmt.Fprintf(w, "ok   %s\n", line)
	}
	return nil
}
