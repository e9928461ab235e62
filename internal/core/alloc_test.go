//go:build !race

// The race detector changes allocation counts (this sort reads about 64
// bytes per element under it), so these gates build without it only.

package core

import (
	"runtime"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/native"
	"pmsort/internal/workload"
)

// allocRec is a 16-byte record ordered by K alone, sorted under an
// explicit Prefix: the inexact-hook kernels (prefix sidecar, prefix
// radix, prefix-cached merge).
type allocRec struct{ K, V uint64 }

func allocRecLess(a, b allocRec) bool { return a.K < b.K }

// TestRLMAllocBudget pins what one RLM sort on the inexact-hook path
// allocates (native backend, p = 4, 2^17 records per PE, one level):
// the 8-byte prefix sidecar, the prefix radix's two 16-byte (prefix,
// id) buffers, and one 16-byte payload buffer — the gather buffer of
// the initial sort, lent back as the merge output — 56 bytes per
// element, plus a little for the collectives. A sidecar grown by
// per-element appends, or a merge output allocated beside a dead gather
// buffer, each push it well past the 60-byte budget.
func TestRLMAllocBudget(t *testing.T) {
	const p, perPE, sorts = 4, 1 << 17, 4
	src := make([][]allocRec, p)
	work := make([][]allocRec, p)
	for r := range src {
		keys := workload.Local(workload.Skewed, 1, p, perPE, r)
		src[r] = make([]allocRec, len(keys))
		for i, k := range keys {
			src[r][i] = allocRec{K: k, V: uint64(r*perPE + i)}
		}
		work[r] = make([]allocRec, len(keys))
	}
	cfg := Config{Levels: 1, Seed: 1, Prefix: func(e allocRec) uint64 { return e.K }}
	m := native.New(p)
	outLen := make([]int, p)
	sortOnce := func() {
		m.Run(func(c comm.Communicator) {
			r := c.Rank()
			copy(work[r], src[r])
			out, _ := RLMSort(c, work[r], allocRecLess, cfg)
			outLen[r] = len(out)
		})
	}
	sortOnce() // warm-up: one-time registrations and lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sorts; i++ {
		sortOnce()
	}
	runtime.ReadMemStats(&after)
	total := 0
	for _, n := range outLen {
		total += n
	}
	if total != p*perPE {
		t.Fatalf("RLM returned %d elements, want %d", total, p*perPE)
	}
	perElem := float64(after.TotalAlloc-before.TotalAlloc) / sorts / float64(p*perPE)
	t.Logf("%.1f bytes allocated per element per sort", perElem)
	if perElem > 60 {
		t.Fatalf("RLM on the prefix path allocates %.1f bytes per element per sort, budget 60", perElem)
	}
}
