package seq

import "math"

// TieTable is the Appendix-D tie fix-up of one PE's classification pass
// (DESIGN.md §9). Splitters of one equal-key run carry (PE, position)
// tags sorted by (pe, idx); an element equal to that key at position x
// belongs after the run's splitters whose tags precede its own. Seen
// from one PE, every tag reduces to a threshold: −1 for a lower PE's
// tag (always passed), the tag's idx for an own tag (passed once x
// exceeds it), MaxInt32 for a higher PE's tag (never passed). Each run
// keeps its current bucket ans and the threshold thr of the splitter at
// ans, so the bucket of position x is ans after advancing while x > thr.
//
// The table is a cursor: callers must visit each run's positions in
// increasing order, as every classification pass does. Within a
// threshold step the bucket is constant, so fillRun resolves a run of
// equal elements one segment per crossing.
type TieTable struct {
	runLo []int32 // runLo[k]: the first splitter of k's equal-key run
	tag   []int32 // tag[k]: splitter k's threshold
	ans   []int32 // per run, at its first splitter: the current bucket
	thr   []int32 // per run: the threshold of the splitter at ans
}

// NewTieTable builds the table over m sorted splitters from each one's
// run start runLo[k] (the first index of its equal-key run) and its
// threshold tag[k]. Both slices are retained.
func NewTieTable(runLo, tag []int32) *TieTable {
	m := len(runLo)
	t := &TieTable{runLo: runLo, tag: tag, ans: make([]int32, m), thr: make([]int32, m)}
	for j := int32(0); j < int32(m); j++ {
		if runLo[j] == j {
			t.ans[j], t.thr[j] = j, t.thrOf(j, j)
		}
	}
	return t
}

// thrOf is the threshold of splitter k inside run lo: MaxInt32 past the
// run's end.
func (t *TieTable) thrOf(lo, k int32) int32 {
	if int(k) == len(t.runLo) || t.runLo[k] != lo {
		return math.MaxInt32
	}
	return t.tag[k]
}

// Bucket returns the bucket of the element at position x equal to the
// key of the run starting at splitter lo.
func (t *TieTable) Bucket(x, lo int) int {
	for int32(x) > t.thr[lo] {
		t.ans[lo]++
		t.thr[lo] = t.thrOf(int32(lo), t.ans[lo])
	}
	return int(t.ans[lo])
}

// fillRun sets ids[x] to Bucket(x, lo) for every x in [i, j), writing
// one constant segment per threshold crossing.
func (t *TieTable) fillRun(ids []uint16, i, j, lo int) {
	for i < j {
		b := uint16(t.Bucket(i, lo))
		end := j
		if thr := int(t.thr[lo]); thr < end-1 {
			end = thr + 1
		}
		fill(ids[i:end], b)
		i = end
	}
}

// fill sets every entry of ids to b.
func fill(ids []uint16, b uint16) {
	for x := range ids {
		ids[x] = b
	}
}
