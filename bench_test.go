// Benchmarks: one per table/figure of the paper's evaluation (DESIGN.md
// §3), at benchmark-friendly scale (p ≤ 256). Every benchmark reports
// the *simulated* time as the custom metric "simms/op" next to the real
// host time; the full-scale tables are produced by cmd/sortbench.
//
// The BenchmarkNative* group is different: it runs the native
// shared-memory backend, so ns/op there is real sorting speed — the
// wall-clock trajectory future PRs improve against the
// BenchmarkNativeSortSlice one-core reference.
package pmsort

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"pmsort/internal/core"
	"pmsort/internal/delivery"
	"pmsort/internal/expt"
	"pmsort/internal/seq"
	"pmsort/internal/wire"
	"pmsort/internal/workload"
)

// u64Key is the identity order key of the uint64 benchmarks: it turns
// on the radix kernel fast path (Config.Key).
func u64Key(x uint64) uint64 { return x }

// benchRun executes one validated sorting run per iteration and reports
// the simulated time.
func benchRun(b *testing.B, spec expt.Spec) {
	b.Helper()
	var sim int64
	for i := 0; i < b.N; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)
		res, err := expt.Run("sim", s)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.TotalNS
	}
	b.ReportMetric(float64(sim)/1e6, "simms/op")
}

// BenchmarkTable1 regenerates the level plans (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []int{512, 2048, 8192, 32768} {
			for k := 1; k <= 3; k++ {
				core.PlanLevels(p, k)
			}
		}
	}
}

// BenchmarkTable2 is the weak-scaling grid of Table 2 (AMS-sort, the
// level count that Table 2 would select is benchmarked explicitly).
func BenchmarkTable2(b *testing.B) {
	for _, p := range []int{64, 256} {
		for _, perPE := range []int{1_000, 10_000} {
			for _, k := range []int{1, 2, 3} {
				b.Run(fmt.Sprintf("p=%d/np=%d/k=%d", p, perPE, k), func(b *testing.B) {
					benchRun(b, expt.Spec{Algo: expt.AMS, P: p, PerPE: perPE, Levels: k, Seed: 1})
				})
			}
		}
	}
}

// BenchmarkFig7 measures the RLM-sort side of the slowdown plot.
func BenchmarkFig7(b *testing.B) {
	for _, p := range []int{64, 256} {
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("RLM/p=%d/k=%d", p, k), func(b *testing.B) {
				benchRun(b, expt.Spec{Algo: expt.RLM, P: p, PerPE: 1_000, Levels: k, Seed: 2})
			})
		}
	}
}

// BenchmarkFig8 exercises the phase-breakdown configuration (3-level
// AMS at the largest benchmark machine).
func BenchmarkFig8(b *testing.B) {
	benchRun(b, expt.Spec{Algo: expt.AMS, P: 256, PerPE: 10_000, Levels: 3, Seed: 3})
}

// BenchmarkFig10 exercises the overpartitioning imbalance sweep point
// (b=16, a·b=256).
func BenchmarkFig10(b *testing.B) {
	benchRun(b, expt.Spec{Algo: expt.AMS, P: 64, PerPE: 10_000, Levels: 1, Seed: 4,
		Oversampling: 16, Overpartition: 16})
}

// BenchmarkFig11 exercises the oversampling sweep point (a=1, b=64 — the
// configuration Appendix E found fastest).
func BenchmarkFig11(b *testing.B) {
	benchRun(b, expt.Spec{Algo: expt.AMS, P: 64, PerPE: 10_000, Levels: 1, Seed: 5,
		Oversampling: 1, Overpartition: 64})
}

// BenchmarkFig12 is one repetition of the distribution measurement.
func BenchmarkFig12(b *testing.B) {
	benchRun(b, expt.Spec{Algo: expt.AMS, P: 256, PerPE: 1_000, Levels: 2, Seed: 6})
}

// BenchmarkCompare covers the §7.3 baselines.
func BenchmarkCompare(b *testing.B) {
	specs := map[string]expt.Spec{
		"AMS-2level": {Algo: expt.AMS, P: 128, PerPE: 1_000, Levels: 2},
		"MP-sort":    {Algo: expt.MP, P: 128, PerPE: 1_000, Levels: 1},
		"GV-sample":  {Algo: expt.GV, P: 128, PerPE: 1_000, Levels: 1},
		"bitonic":    {Algo: expt.Bitonic, P: 128, PerPE: 1_000, Levels: 1},
		"histogram":  {Algo: expt.Hist, P: 128, PerPE: 1_000, Levels: 1},
		"quicksort":  {Algo: expt.HCQ, P: 128, PerPE: 1_000, Levels: 1},
	}
	for name, spec := range specs {
		spec.Seed = 7
		b.Run(name, func(b *testing.B) { benchRun(b, spec) })
	}
}

// BenchmarkDelivery covers the §4.3 delivery-strategy ablation.
func BenchmarkDelivery(b *testing.B) {
	for _, strat := range []delivery.Strategy{delivery.Simple, delivery.Randomized,
		delivery.RandomizedAdvanced, delivery.Deterministic} {
		b.Run(strat.String(), func(b *testing.B) {
			benchRun(b, expt.Spec{Algo: expt.AMS, P: 128, PerPE: 1_000, Levels: 2, Seed: 8,
				Delivery: delivery.Options{Strategy: strat}})
		})
	}
}

// BenchmarkAlltoall covers the 1-factor vs direct exchange ablation (§7.1).
func BenchmarkAlltoall(b *testing.B) {
	for name, exch := range map[string]delivery.Exchange{"1factor": delivery.OneFactor, "direct": delivery.Direct} {
		b.Run(name, func(b *testing.B) {
			benchRun(b, expt.Spec{Algo: expt.AMS, P: 128, PerPE: 1_000, Levels: 1, Seed: 9,
				Delivery: delivery.Options{Exchange: exch}})
		})
	}
}

// benchNativeN is the fixed total input size of the native strong-
// scaling benchmarks (1M words = 8 MB).
const benchNativeN = 1 << 20

// nativeLocals cuts one deterministic input of benchNativeN elements
// into p per-PE slices.
func nativeLocals(p int, seed uint64) [][]uint64 {
	perPE := benchNativeN / p
	locals := make([][]uint64, p)
	for rank := 0; rank < p; rank++ {
		locals[rank] = workload.Local(workload.Uniform, seed, p, perPE, rank)
	}
	return locals
}

// BenchmarkNativeSortSlice is the one-core sequential reference: a
// single sort.Slice over the whole benchNativeN-element input.
func BenchmarkNativeSortSlice(b *testing.B) {
	b.SetBytes(benchNativeN * 8)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := workload.Local(workload.Uniform, uint64(i), 1, benchNativeN, 0)
		b.StartTimer()
		sort.Slice(data, func(x, y int) bool { return data[x] < data[y] })
	}
}

// BenchmarkNativeSortKeyed is the one-core keyed-kernel reference: a
// single LSD radix sort (seq.SortKeyed, the Config.Key fast path) over
// the whole benchNativeN-element input. The honest denominator for the
// keyed parallel numbers, next to the sort.Slice trajectory baseline.
func BenchmarkNativeSortKeyed(b *testing.B) {
	b.SetBytes(benchNativeN * 8)
	var scratch []uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := workload.Local(workload.Uniform, uint64(i), 1, benchNativeN, 0)
		b.StartTimer()
		scratch = seq.SortKeyed(data, u64Key, scratch)
	}
}

// BenchmarkNativeAMS sorts the same fixed input with AMS-sort on the
// native backend at several p (strong scaling), with the ordered-key
// radix kernel (Config.Key) — the configuration the README's speedup
// table records. On a multicore host the ns/op ratio against
// BenchmarkNativeSortSlice is the real speedup; past p = GOMAXPROCS
// the goroutine-PEs time-share cores.
func BenchmarkNativeAMS(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(benchNativeN * 8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				locals := nativeLocals(p, uint64(i))
				cl := NewNative(p)
				b.StartTimer()
				cl.Run(func(c Communicator) {
					_, _ = AMSSort(c, locals[c.Rank()], u64Less, Config{Levels: 1, Seed: 42, Key: u64Key})
				})
			}
		})
	}
}

// BenchmarkNativeAMSCmp is BenchmarkNativeAMS on the plain comparator
// kernels (stable sort pieces + loser-tree merge, no Config.Key, prefix
// cache off) — the floor every element type without an order key used
// to be stuck at.
func BenchmarkNativeAMSCmp(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(benchNativeN * 8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				locals := nativeLocals(p, uint64(i))
				cl := NewNative(p)
				b.StartTimer()
				cl.Run(func(c Communicator) {
					_, _ = AMSSort(c, locals[c.Rank()], u64Less, Config{Levels: 1, Seed: 42, NoPrefix: true})
				})
			}
		})
	}
}

// BenchmarkNativeAMSCmpPrefix is BenchmarkNativeAMSCmp with the prefix
// cache on (the default): the derived uint64 prefix routes local sort,
// classification, and merging through the cached kernels, with the
// comparator only on equal-prefix ties. Output is byte-identical to
// BenchmarkNativeAMSCmp; the gap against BenchmarkNativeAMS is what the
// comparator path still pays.
func BenchmarkNativeAMSCmpPrefix(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(benchNativeN * 8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				locals := nativeLocals(p, uint64(i))
				cl := NewNative(p)
				b.StartTimer()
				cl.Run(func(c Communicator) {
					_, _ = AMSSort(c, locals[c.Rank()], u64Less, Config{Levels: 1, Seed: 42})
				})
			}
		})
	}
}

// benchRec is the struct-element benchmark payload: padding-free
// (16 bytes), ordered by K, with a V payload that rides along through
// every kernel. The wire codec bulk-copies it; the comparator path is
// the only sorting option (no uint64 order key is configured).
type benchRec struct {
	K uint64
	V uint64
}

func benchRecLess(a, b benchRec) bool { return a.K < b.K }

// benchStructN is the total struct-element count (1<<19 × 16 B = 8 MB,
// matching the uint64 benchmarks' footprint).
const benchStructN = 1 << 19

func structLocals(p int, seed uint64) [][]benchRec {
	perPE := benchStructN / p
	locals := make([][]benchRec, p)
	for rank := 0; rank < p; rank++ {
		keys := workload.Local(workload.Uniform, seed, p, perPE, rank)
		loc := make([]benchRec, perPE)
		for i, k := range keys {
			loc[i] = benchRec{K: k, V: uint64(rank)<<32 | uint64(i)}
		}
		locals[rank] = loc
	}
	return locals
}

// BenchmarkNativeAMSStruct sorts the struct-key workload on the native
// backend: cmp is the plain comparator path, prefix adds Config.Prefix
// extracting K — the measured gap is what the prefix cache buys real
// struct elements (where no radix fast path exists).
func BenchmarkNativeAMSStruct(b *testing.B) {
	const p = 4
	variants := []struct {
		name string
		cfg  Config
	}{
		{"cmp", Config{Levels: 1, Seed: 42, NoPrefix: true}},
		{"prefix", Config{Levels: 1, Seed: 42, Prefix: func(e benchRec) uint64 { return e.K }}},
	}
	for _, v := range variants {
		b.Run(fmt.Sprintf("%s-p%d", v.name, p), func(b *testing.B) {
			b.SetBytes(benchStructN * 16)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				locals := structLocals(p, uint64(i))
				cl := NewNative(p)
				b.StartTimer()
				cl.Run(func(c Communicator) {
					_, _ = AMSSort(c, locals[c.Rank()], benchRecLess, v.cfg)
				})
			}
		})
	}
}

// BenchmarkNativeRLM is the RLM-sort counterpart of BenchmarkNativeAMS
// (perfectly balanced output, merge-based bucket processing).
func BenchmarkNativeRLM(b *testing.B) {
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(benchNativeN * 8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				locals := nativeLocals(p, uint64(i))
				cl := NewNative(p)
				b.StartTimer()
				cl.Run(func(c Communicator) {
					_, _ = RLMSort(c, locals[c.Rank()], u64Less, Config{Levels: 1, Seed: 42, Key: u64Key})
				})
			}
		})
	}
}

// BenchmarkWorkloads measures robustness across input distributions.
func BenchmarkWorkloads(b *testing.B) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.Skewed, workload.DupHeavy, workload.Sorted} {
		b.Run(kind.String(), func(b *testing.B) {
			benchRun(b, expt.Spec{Algo: expt.AMS, P: 64, PerPE: 5_000, Levels: 2, Seed: 10,
				Kind: kind})
		})
	}
}

// BenchmarkWireEncode measures the wire codec's serialization
// throughput for bulk element slices (the dominant payload of the TCP
// backend's data-delivery phase). bytes/s ≈ encode GB/s.
func BenchmarkWireEncode(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("u64s-%d", n), func(b *testing.B) {
			payload := workload.Local(workload.Uniform, 1, 1, n, 0)
			w := wire.NewWriter()
			buf, err := w.AppendPayload(nil, payload)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = w.AppendPayload(buf[:0], payload)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecode measures deserialization throughput for bulk
// element slices on the transport's frame path: aligned encoding,
// decoded as zero-copy views of the frame buffer (what netcomm.readLoop
// does, with the buffer handed off to the payload). The per-frame cost
// is parsing plus one slice-header construction — no copy, no
// allocation per element.
func BenchmarkWireDecode(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("u64s-%d", n), func(b *testing.B) {
			payload := workload.Local(workload.Uniform, 1, 1, n, 0)
			segs, err := wire.NewWriter().AppendPayloadVec(nil, payload,
				wire.VecOptions{Aligned: wire.HostLittleEndian()})
			if err != nil {
				b.Fatal(err)
			}
			var buf []byte
			for _, s := range segs {
				buf = append(buf, s...)
			}
			r := wire.NewReader()
			opt := wire.DecodeOptions{Aligned: wire.HostLittleEndian(), Alias: true}
			if _, _, _, err := r.DecodePayloadOpt(buf, opt); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := r.DecodePayloadOpt(buf, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecodeCopy measures the copying decode path — what the
// chaos middleware's forced serialization and big-endian peers pay:
// every payload is carved out of the reader's bump arena and memmoved.
func BenchmarkWireDecodeCopy(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("u64s-%d", n), func(b *testing.B) {
			payload := workload.Local(workload.Uniform, 1, 1, n, 0)
			buf, err := wire.NewWriter().AppendPayload(nil, payload)
			if err != nil {
				b.Fatal(err)
			}
			r := wire.NewReader()
			if _, _, err := r.DecodePayload(buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Grow(len(buf))
				if _, _, err := r.DecodePayload(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireRoundtripTagged measures the structural (reflection-
// compiled) codec on the tagged sample slices of splitter selection —
// the hot non-bulk payload.
func BenchmarkWireRoundtripTagged(b *testing.B) {
	type tag struct {
		key uint64
		pe  int32
		idx int32
	}
	wire.Register[[]tag]()
	const n = 1 << 12
	payload := make([]tag, n)
	for i := range payload {
		payload[i] = tag{key: uint64(i) * 0x9e3779b97f4a7c15, pe: int32(i % 64), idx: int32(i)}
	}
	w, r := wire.NewWriter(), wire.NewReader()
	buf, err := w.AppendPayload(nil, payload)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := r.DecodePayload(buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = w.AppendPayload(buf[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.DecodePayload(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPCluster runs AMS-sort on an in-process loopback TCP
// cluster (real sockets, real serialization; the ranks share this
// process's cores, so treat it as a transport benchmark, not a scaling
// one).
func BenchmarkTCPCluster(b *testing.B) {
	const p = 4
	for _, perPE := range []int{1_000, 25_000} {
		b.Run(fmt.Sprintf("ams-p%d-n%d", p, perPE), func(b *testing.B) {
			addrs, err := expt.ReserveLoopbackAddrs(p)
			if err != nil {
				b.Fatal(err)
			}
			clusters := make([]*TCPCluster, p)
			var wg sync.WaitGroup
			for rank := 0; rank < p; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					cl, err := NewTCP(rank, addrs)
					if err != nil {
						b.Errorf("rank %d: %v", rank, err)
						return
					}
					clusters[rank] = cl
				}(rank)
			}
			wg.Wait()
			if b.Failed() {
				return
			}
			defer func() {
				b.StopTimer()
				// Close concurrently, like real rank processes do: a
				// closing endpoint waits for its peers' EOFs.
				var cwg sync.WaitGroup
				for _, cl := range clusters {
					cwg.Add(1)
					go func(cl *TCPCluster) {
						defer cwg.Done()
						cl.Close()
					}(cl)
				}
				cwg.Wait()
			}()
			locals := make([][]uint64, p)
			for rank := range locals {
				locals[rank] = workload.Local(workload.Uniform, 42, p, perPE, rank)
			}
			b.SetBytes(int64(8 * p * perPE))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var run sync.WaitGroup
				for rank := 0; rank < p; rank++ {
					run.Add(1)
					go func(rank int) {
						defer run.Done()
						_, err := clusters[rank].Run(func(c Communicator) {
							data := append([]uint64(nil), locals[rank]...)
							_, _ = AMSSort(c, data, u64Less, Config{Levels: 1, Seed: 42 + uint64(i)})
						})
						if err != nil {
							b.Errorf("rank %d: %v", rank, err)
						}
					}(rank)
				}
				run.Wait()
				if b.Failed() {
					return
				}
			}
		})
	}
}
