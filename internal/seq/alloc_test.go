//go:build !race

// The race detector changes allocation counts (2 instead of 1 into a
// nil dst below), so these gates build without it only.

package seq

import (
	"math/rand"
	"testing"
)

// TestExtractPrefixesAllocs: the sidecar pass reserves its slots in one
// allocation, and makes none when dst already has room.
func TestExtractPrefixesAllocs(t *testing.T) {
	data := randPV(rand.New(rand.NewSource(13)), 5000, 1<<20)
	if allocs := testing.AllocsPerRun(10, func() {
		ExtractPrefixes(nil, data, coarse)
	}); allocs != 1 {
		t.Errorf("ExtractPrefixes into a nil dst: %v allocations, want 1", allocs)
	}
	dst := make([]uint64, 0, 3+len(data))
	if allocs := testing.AllocsPerRun(10, func() {
		ExtractPrefixes(append(dst, 7, 8, 9), data, coarse)
	}); allocs != 0 {
		t.Errorf("ExtractPrefixes into a dst with room: %v allocations, want 0", allocs)
	}
}
