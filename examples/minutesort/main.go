// MinuteSort-style record sorting — the Sort Benchmark workload the
// paper compares against in §7.3 (TritonSort / Baidu-Sort): 100-byte
// records with 10-byte random keys. Records are sorted by key with
// 2-level AMS-sort, whose Appendix D tie-breaking is always on (random
// 10-byte keys collide rarely, but a production sorter cannot assume
// they never do).
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"pmsort"
)

// record is a Sort Benchmark row: 10-byte key, 90-byte payload.
type record struct {
	Key     [10]byte
	Payload [90]byte
}

func recordLess(a, b record) bool {
	return bytes.Compare(a.Key[:], b.Key[:]) < 0
}

func main() {
	const (
		p     = 64
		perPE = 20_000
	)
	cl := pmsort.New(p)
	outs := make([][]record, p)
	var stats *pmsort.Stats

	cl.Run(func(pe *pmsort.PE) {
		rng := rand.New(rand.NewSource(int64(pe.Rank()) + 99))
		data := make([]record, perPE)
		for i := range data {
			rng.Read(data[i].Key[:])
			rng.Read(data[i].Payload[:8]) // a little entropy is enough
		}
		sorted, st := pmsort.AMSSort(pmsort.World(pe), data, recordLess,
			pmsort.Config{Levels: 2, Seed: 1})
		outs[pe.Rank()] = sorted
		if pe.Rank() == 0 {
			stats = st
		}
	})

	// Validate the Sort Benchmark way: keys non-decreasing end to end.
	var prev []byte
	total := 0
	for rank, out := range outs {
		for i := range out {
			if prev != nil && bytes.Compare(out[i].Key[:], prev) < 0 {
				fmt.Fprintf(os.Stderr, "order violation at PE %d record %d\n", rank, i)
				os.Exit(1)
			}
			prev = out[i].Key[:]
		}
		total += len(out)
	}
	bytesSorted := total * 100
	fmt.Printf("sorted %d records (%.1f MB) on %d PEs in %.3f ms simulated time\n",
		total, float64(bytesSorted)/1e6, p, float64(stats.TotalNS)/1e6)
	fmt.Printf("  (the simulator counts one machine word per record; the paper's\n")
	fmt.Printf("   §7.3 comparison normalizes element sizes the same way)\n")
}
