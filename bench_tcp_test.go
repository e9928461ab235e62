// TCP-backend benchmarks: the distributed data path as a first-class,
// recorded artifact (BENCH_tcp.{txt,json}, scripts/bench.sh -tcp).
// Everything runs on an in-process loopback cluster — real sockets,
// real serialization, ranks time-sharing this process's cores — so
// ns/op measures transport + codec CPU cost, not network latency or
// multi-machine scaling. The headline benchmark is BenchmarkTCPAMS
// (p=4, 8 MB of uint64, keyed): the end-to-end number the streaming
// exchange PR moved and future transport work is measured against.
package pmsort

import (
	"fmt"
	"sync"
	"testing"

	"pmsort/internal/delivery"
	"pmsort/internal/expt"
	"pmsort/internal/workload"
)

// tcpBenchN is the fixed total input of the TCP sorting benchmarks:
// 1M uint64 = 8 MB end to end.
const tcpBenchN = 1 << 20

// benchLoopback builds a p-rank in-process loopback cluster, runs
// fn(clusters) for b.N iterations, and tears the cluster down. fn is
// responsible for running one collective program per rank.
func benchLoopback(b *testing.B, p int, fn func(b *testing.B, clusters []*TCPCluster)) {
	b.Helper()
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
	fn(b, clusters)
}

// runRanks runs fn collectively on every rank of the cluster and waits.
func runRanks(b *testing.B, clusters []*TCPCluster, fn func(c Communicator, rank int)) {
	b.Helper()
	var run sync.WaitGroup
	for rank := range clusters {
		run.Add(1)
		go func(rank int) {
			defer run.Done()
			if _, err := clusters[rank].Run(func(c Communicator) { fn(c, rank) }); err != nil {
				b.Errorf("rank %d: %v", rank, err)
			}
		}(rank)
	}
	run.Wait()
}

// benchTCPSort runs one sorter over the fixed 8 MB input per iteration.
func benchTCPSort(b *testing.B, p int, sort func(c Communicator, data []uint64)) {
	perPE := tcpBenchN / p
	locals := make([][]uint64, p)
	for rank := range locals {
		locals[rank] = workload.Local(workload.Uniform, 42, p, perPE, rank)
	}
	benchLoopback(b, p, func(b *testing.B, clusters []*TCPCluster) {
		b.SetBytes(int64(8 * tcpBenchN))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runRanks(b, clusters, func(c Communicator, rank int) {
				// The sorters consume their input: hand each iteration a copy.
				sort(c, append([]uint64(nil), locals[rank]...))
			})
			if b.Failed() {
				return
			}
		}
	})
}

// BenchmarkTCPAMS is the headline distributed number: AMS-sort of 8 MB
// of uint64 on a p=4 loopback cluster, across the three local-kernel
// variants — keyed (Config.Key radix), cmp (plain comparator,
// NoPrefix), and cmpprefix (comparator with the derived prefix, the
// default for comparator sorts; for uint64 it is exact, so this variant
// runs the keyed kernels too).
func BenchmarkTCPAMS(b *testing.B) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"keyed", Config{Levels: 1, Seed: 42, Key: u64Key}},
		{"cmp", Config{Levels: 1, Seed: 42, NoPrefix: true}},
		{"cmpprefix", Config{Levels: 1, Seed: 42}},
	}
	for _, v := range variants {
		b.Run(fmt.Sprintf("%s-p4-n%d", v.name, tcpBenchN), func(b *testing.B) {
			cfg := v.cfg
			benchTCPSort(b, 4, func(c Communicator, data []uint64) {
				_, _ = AMSSort(c, data, u64Less, cfg)
			})
		})
	}
}

// BenchmarkTCPAMSStruct is BenchmarkTCPAMS on the padding-free struct
// element of BenchmarkNativeAMSStruct: 8 MB of 16-byte records crossing
// real sockets, sorted by the comparator path with and without the
// prefix cache. Struct payloads have no Config.Key radix option, so the
// cmp→prefix gap here is the whole win available to them.
func BenchmarkTCPAMSStruct(b *testing.B) {
	const p = 4
	variants := []struct {
		name string
		cfg  Config
	}{
		{"cmp", Config{Levels: 1, Seed: 42, NoPrefix: true}},
		{"prefix", Config{Levels: 1, Seed: 42, Prefix: func(e benchRec) uint64 { return e.K }}},
	}
	for _, v := range variants {
		b.Run(fmt.Sprintf("%s-p4-n%d", v.name, benchStructN), func(b *testing.B) {
			locals := structLocals(p, 42)
			benchLoopback(b, p, func(b *testing.B, clusters []*TCPCluster) {
				b.SetBytes(int64(16 * benchStructN))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runRanks(b, clusters, func(c Communicator, rank int) {
						_, _ = AMSSort(c, append([]benchRec(nil), locals[rank]...), benchRecLess, v.cfg)
					})
					if b.Failed() {
						return
					}
				}
			})
		})
	}
}

// BenchmarkTCPRLM is the RLM-sort counterpart (merge-based bucket
// processing, perfectly balanced output).
func BenchmarkTCPRLM(b *testing.B) {
	b.Run(fmt.Sprintf("keyed-p4-n%d", tcpBenchN), func(b *testing.B) {
		benchTCPSort(b, 4, func(c Communicator, data []uint64) {
			_, _ = RLMSort(c, data, u64Less, Config{Levels: 1, Seed: 42, Key: u64Key})
		})
	})
}

// BenchmarkTCPAlltoallv isolates the bulk exchange: every rank delivers
// p equal pieces of its 2 MB local slice to p single-PE groups through
// delivery.Deliver — the exact redistribution path of the sorters' data
// delivery phase, without sorting around it.
func BenchmarkTCPAlltoallv(b *testing.B) {
	const p = 4
	perPE := tcpBenchN / p
	for _, exch := range []delivery.Exchange{delivery.OneFactor, delivery.Direct} {
		name := "1factor"
		if exch == delivery.Direct {
			name = "direct"
		}
		b.Run(fmt.Sprintf("%s-p4-n%d", name, tcpBenchN), func(b *testing.B) {
			locals := make([][]uint64, p)
			for rank := range locals {
				locals[rank] = workload.Local(workload.Uniform, 7, p, perPE, rank)
			}
			benchLoopback(b, p, func(b *testing.B, clusters []*TCPCluster) {
				b.SetBytes(int64(8 * tcpBenchN))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runRanks(b, clusters, func(c Communicator, rank int) {
						data := locals[rank]
						pieces := make([][]uint64, p)
						for j := 0; j < p; j++ {
							pieces[j] = data[j*perPE/p : (j+1)*perPE/p]
						}
						_ = Deliver(c, pieces, DeliveryOptions{Exchange: exch})
					})
					if b.Failed() {
						return
					}
				}
			})
		})
	}
}
