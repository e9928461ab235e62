package expt

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/workload"
)

// tagCounter is middleware that counts one rank's sent messages per
// tag. It unwraps, so capability lookups (obs recorder, sim PE) still
// see the backend's endpoint.
type tagCounter struct {
	comm.Endpoint
	mu   sync.Mutex
	sent map[int]int64
}

func (t *tagCounter) Send(to, tag int, payload any, words int64) {
	t.mu.Lock()
	t.sent[tag]++
	t.mu.Unlock()
	t.Endpoint.Send(to, tag, payload, words)
}

func (t *tagCounter) Unwrap() comm.Endpoint { return t.Endpoint }

// goldenCase is one row of the message table: a sorter on p ranks with
// n/p = 1024 uniform keys, single-level (rs nil) or on the fixed group
// plan rs.
type goldenCase struct {
	algo Algo
	p    int
	rs   []int
}

func (gc goldenCase) String() string {
	name := fmt.Sprintf("%s/p%d", map[Algo]string{AMS: "ams", RLM: "rlm"}[gc.algo], gc.p)
	if gc.rs != nil {
		name += fmt.Sprintf("/rs%dx%d", gc.rs[0], gc.rs[1])
	}
	return name
}

// goldenMessages pins the messages AMS and RLM send, summed over all
// ranks, per tag: the collectives' 0x6c00xx/0x6c10xx blocks and
// delivery's 0x6d00xx. Only the sort is counted; RunOn's validation
// (tag 0x6f0001 and its own collectives) is not. Sim, native and the
// TCP loopback mesh run the same algorithm code, so each must send
// exactly these messages: an extra fence or collective, or a
// backend-specific message, is a diff here.
//
// Tags: 0x6c0000 bcast, 0x6c0001 reduce, 0x6c0002 scan, 0x6c0004
// gossip, 0x6c0005 alltoallv, 0x6c0008 bruck, 0x6c1001/0x6c1002
// Rabenseifner scatter/gather, 0x6d0002 delivery's prefix scan. Each
// fence (coll.TimedBarrier) is a reduce plus a bcast.
var goldenMessages = map[string]map[int]int64{
	"ams/p2":       {0x6c0000: 10, 0x6c0001: 9, 0x6c0004: 2, 0x6c0005: 2, 0x6c0008: 2, 0x6c1001: 2, 0x6c1002: 2, 0x6d0002: 1},
	"ams/p4":       {0x6c0000: 32, 0x6c0001: 29, 0x6c0004: 8, 0x6c0005: 12, 0x6c0008: 8, 0x6c1001: 8, 0x6c1002: 8, 0x6d0002: 5},
	"ams/p4/rs2x2": {0x6c0000: 48, 0x6c0001: 43, 0x6c0004: 12, 0x6c0005: 10, 0x6c0008: 12, 0x6c1001: 12, 0x6c1002: 12, 0x6d0002: 7},
	"ams/p8":       {0x6c0000: 74, 0x6c0001: 67, 0x6c0004: 24, 0x6c0005: 56, 0x6c0008: 24, 0x6c1001: 24, 0x6c1002: 24, 0x6d0002: 17},
	"ams/p8/rs2x2": {0x6c0000: 126, 0x6c0001: 113, 0x6c0004: 40, 0x6c0005: 44, 0x6c0008: 40, 0x6c1001: 40, 0x6c1002: 40, 0x6d0002: 27},
	"rlm/p2":       {0x6c0000: 53, 0x6c0001: 37, 0x6c0002: 30, 0x6c0005: 2, 0x6c0008: 2, 0x6d0002: 1},
	"rlm/p4":       {0x6c0000: 204, 0x6c0001: 141, 0x6c0002: 200, 0x6c0005: 12, 0x6c0008: 8, 0x6d0002: 5},
	"rlm/p4/rs2x2": {0x6c0000: 253, 0x6c0001: 175, 0x6c0002: 197, 0x6c0005: 10, 0x6c0008: 12, 0x6d0002: 7},
	"rlm/p8":       {0x6c0000: 504, 0x6c0001: 343, 0x6c0002: 731, 0x6c0005: 56, 0x6c0008: 24, 0x6d0002: 17},
	"rlm/p8/rs2x2": {0x6c0000: 696, 0x6c0001: 475, 0x6c0002: 842, 0x6c0005: 44, 0x6c0008: 40, 0x6d0002: 27},
}

// TestGoldenMessageTable runs every golden case on every backend and
// compares the per-tag send counts with the table.
func TestGoldenMessageTable(t *testing.T) {
	var cases []goldenCase
	for _, algo := range []Algo{AMS, RLM} {
		for _, p := range []int{2, 4, 8} {
			cases = append(cases, goldenCase{algo: algo, p: p})
			if p >= 4 {
				cases = append(cases, goldenCase{algo: algo, p: p, rs: []int{2, 2}})
			}
		}
	}
	var got strings.Builder
	for _, gc := range cases {
		want := goldenMessages[gc.String()]
		for _, backend := range BackendNames {
			counts, err := countMessages(backend, gc)
			if err != nil {
				t.Fatalf("%v on %s: %v", gc, backend, err)
			}
			if !maps.Equal(counts, want) {
				t.Errorf("%v on %s: sent %s, want %s", gc, backend, tagLiteral(counts), tagLiteral(want))
			}
			if backend == "sim" {
				fmt.Fprintf(&got, "\t%q: %s,\n", gc.String(), tagLiteral(counts))
			}
		}
	}
	if t.Failed() {
		t.Logf("sim table:\n%s", got.String())
	}
}

// countMessages runs gc once on backend and returns the sort's sent
// messages per tag, summed over ranks. Each rank counts through its own
// tagCounter around the sort call alone and validates the output
// outside it.
func countMessages(backend string, gc goldenCase) (map[int]int64, error) {
	spec := Spec{Algo: gc.algo, P: gc.p, PerPE: 1024, Levels: 1, Kind: workload.Uniform, Seed: 7}
	counters := make([]*tagCounter, gc.p)
	err := onBackend(backend, gc.p, backendOpts{}, func(c comm.Communicator) {
		data := workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, c.Rank())
		inCount := int64(len(data))
		cnt := &tagCounter{Endpoint: c.Endpoint(), sent: map[int]int64{}}
		counters[c.Rank()] = cnt
		wc := c.WithEndpoint(cnt)
		var out []uint64
		if gc.rs == nil {
			out, _ = runAlgo(wc, spec, data)
		} else {
			cfg := spec.config()
			cfg.Levels, cfg.Rs = len(gc.rs), gc.rs
			less := func(a, b uint64) bool { return a < b }
			if gc.algo == AMS {
				out, _ = core.AMSSort(wc, data, less, cfg)
			} else {
				out, _ = core.RLMSort(wc, data, less, cfg)
			}
		}
		validate(c, inCount, out)
	})
	if err != nil {
		return nil, err
	}
	total := map[int]int64{}
	for _, cnt := range counters {
		for tag, n := range cnt.sent {
			total[tag] += n
		}
	}
	return total, nil
}

// tagLiteral prints counts as a Go map literal in tag order.
func tagLiteral(counts map[int]int64) string {
	var b strings.Builder
	b.WriteString("{")
	for i, tag := range slices.Sorted(maps.Keys(counts)) {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%#x: %d", tag, counts[tag])
	}
	b.WriteString("}")
	return b.String()
}
