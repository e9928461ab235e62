// Package obs is the backend-neutral observability layer: a per-rank
// tracer and metrics registry the sorting stack reports into, with
// near-zero cost when disabled.
//
// One Recorder per rank collects three kinds of evidence:
//
//   - Spans: nestable named intervals timestamped by the backend's own
//     clock (comm.Cost.Now) — virtual nanoseconds on the simulated
//     backend, wall-clock nanoseconds since the run epoch on the native
//     and TCP backends — so the identical instrumentation in core/coll/
//     delivery produces meaningful traces on every backend. Spans carry
//     optional annotations: a recursion level, an element count, and an
//     imbalance factor.
//   - Counters and gauges: named atomic int64 cells (Counter.Add for
//     counters, Counter.Max for high-watermark gauges), safe to bump
//     from auxiliary goroutines (the TCP backend's reader and writer
//     loops report frame counts and queue depths from off the PE
//     goroutine).
//   - Per-peer traffic: messages and words sent to / received from each
//     global rank, recorded by the bulk-exchange collectives.
//
// The disabled fast path: every method is safe on a nil *Recorder (and
// a nil *Counter) and returns immediately — instrumented code holds a
// possibly-nil recorder obtained once via From and pays one predictable
// branch per call site, no allocations, no atomics. A benchmark and an
// allocation test pin this (obs_test.go), and the acceptance criterion
// is that BenchmarkNativeAMS is unchanged with tracing off.
//
// Recorders reach the algorithms through the communicator: endpoints of
// backends with tracing enabled implement the Source interface, and
// From(c) looks it up as an optional endpoint capability — no change to
// comm.Communicator, and communicators split from a traced world stay
// traced (they share the PE's endpoint). See DESIGN.md §12.
package obs

import (
	"sync"
	"sync/atomic"

	"pmsort/internal/comm"
)

// Span names emitted by the sorting stack (the span taxonomy of
// DESIGN.md §12). Per-level spans repeat once per recursion level with
// Level set; the phase spans nest inside their level span, finer spans
// nest inside their phase span.
const (
	// SpanAMS / SpanRLM wrap one whole sort call (barrier to barrier).
	SpanAMS = "ams-sort"
	SpanRLM = "rlm-sort"
	// SpanLevel wraps one recursion level, including everything below it.
	SpanLevel = "level"
	// SpanSplitterSel is the splitter-selection phase: sampling + sample
	// sort + selection (AMS) or multisequence selection (RLM).
	SpanSplitterSel = "splitter-selection"
	// SpanSample is the local sampling step inside splitter selection.
	SpanSample = "sample"
	// SpanSplitterSort is the fast work-inefficient sample sort plus the
	// splitter rank selection inside splitter selection.
	SpanSplitterSort = "splitter-sort"
	// SpanClassify is the bucket-processing phase's classification and
	// in-place partition (AMS); annotated with the level's imbalance.
	SpanClassify = "classify"
	// SpanPieceSort named the comparator last level's pre-exchange
	// piece sort. No sorter emits it any more (every AMS last level
	// sorts after the exchange, under SpanLocalSort); the name stays
	// for readers that report it.
	SpanPieceSort = "piece-sort"
	// SpanExchange is the data-delivery phase: the bulk exchange plus
	// whatever work the streaming consumers overlap into it.
	SpanExchange = "exchange"
	// SpanMerge is the multiway merge of received runs (RLM levels).
	SpanMerge = "merge"
	// SpanLocalSort is a local sort kernel run: the base case, the RLM
	// initial sort, or the AMS last level's finish.
	SpanLocalSort = "local-sort"
	// SpanDeliver wraps one delivery.DeliverStream call (plan + bulk
	// exchange), nested inside SpanExchange.
	SpanDeliver = "deliver"
)

// Counter and gauge names reported by the communication layers.
const (
	// CtrEmitNS accumulates nanoseconds spent inside the streaming
	// exchange's emit callbacks — the consumer work overlapped into the
	// bulk exchange (coll.AlltoallvDirectStreamFunc and friends).
	CtrEmitNS = "exchange.emit.ns"
	// CtrNetFramesOut / CtrNetFramesIn count wire frames written to /
	// decoded from peer connections (TCP backend).
	CtrNetFramesOut = "net.frames.out"
	CtrNetFramesIn  = "net.frames.in"
	// CtrNetWritevCalls / CtrNetWritevBytes count vectored writes
	// (net.Buffers) and the bytes they carried; CtrNetBufWrites counts
	// the small frames that batched through bufio instead.
	CtrNetWritevCalls = "net.writev.calls"
	CtrNetWritevBytes = "net.writev.bytes"
	CtrNetBufWrites   = "net.bufio.writes"
	// CtrMboxDepthMax is the high-watermark of undelivered messages in
	// the process mailbox (gauge, via Counter.Max).
	CtrMboxDepthMax = "mbox.depth.max"
	// CtrMboxWaitNS accumulates nanoseconds the PE spent parked in a
	// blocked receive waiting for a message to arrive.
	CtrMboxWaitNS = "mbox.wait.ns"
)

// Source is the optional capability a backend's endpoint implements to
// hand out its PE's recorder; it returns nil while tracing is off.
type Source interface {
	Recorder() *Recorder
}

// From extracts the recorder behind a communicator. It returns nil —
// the disabled recorder — when the endpoint is not a Source (or is
// hidden behind a comm.WithTagOffset view) or tracing is off. Call it
// once per algorithm entry and keep the result; the nil check at each
// use is the whole disabled-path cost.
func From(c comm.Communicator) *Recorder {
	if s, ok := comm.Capability[Source](c); ok {
		return s.Recorder()
	}
	return nil
}

// Counter is a named atomic cell: Add accumulates, Max keeps a
// high-watermark (gauge). All methods are safe on a nil *Counter (the
// disabled path) and safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add accumulates n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Max raises the cell to n if n is larger (high-watermark gauge).
func (c *Counter) Max(n int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// SpanRec is one recorded span. Start/End are clock timestamps of the
// recording rank (virtual or wall nanoseconds); Level is the recursion
// level or -1; N is an element-count annotation or -1; Imb is an
// imbalance annotation or 0.
type SpanRec struct {
	Name  string
	Level int32
	Depth int32
	Start int64
	End   int64
	N     int64
	Imb   float64
}

// peerCells is the number of atomic cells kept per peer: messages and
// words sent, messages and words received.
const peerCells = 4

// Recorder is one rank's trace and metrics sink. Spans must be started
// and ended on the goroutine running the rank's PE program; counters
// and peer traffic may be bumped from any goroutine. A nil *Recorder is
// the disabled recorder: every method no-ops.
type Recorder struct {
	rank  int
	p     int
	clock func() int64

	// Span storage; PE-goroutine only.
	spans []SpanRec
	stack []int32

	// Counter registry. The mutex guards registration; the cells
	// themselves are atomic.
	mu     sync.Mutex
	byName map[string]*Counter
	names  []string
	cells  []*Counter

	// Per-peer traffic, peerCells cells per global rank.
	peers []atomic.Int64
}

// NewRecorder creates a recorder for the given global rank of a p-rank
// machine. clock supplies timestamps in nanoseconds — the backend's
// run-relative wall clock, or the PE's virtual clock on the simulator.
func NewRecorder(rank, p int, clock func() int64) *Recorder {
	return &Recorder{
		rank:   rank,
		p:      p,
		clock:  clock,
		byName: make(map[string]*Counter),
		peers:  make([]atomic.Int64, peerCells*p),
	}
}

// Rank returns the recording rank (-1 on nil).
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// Now returns the recorder's clock in nanoseconds (0 on nil). Use it to
// time work whose duration feeds a counter instead of a span.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Span is a handle to an open span. The zero Span (from a nil recorder)
// ignores all operations.
type Span struct {
	r   *Recorder
	idx int32
}

// Start opens a span with no recursion level. Spans nest: a span opened
// while another is open becomes its child (depth + containment in the
// exported trace).
func (r *Recorder) Start(name string) Span { return r.StartLevel(name, -1) }

// StartLevel opens a span annotated with a recursion level.
func (r *Recorder) StartLevel(name string, level int) Span {
	if r == nil {
		return Span{}
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, SpanRec{
		Name:  name,
		Level: int32(level),
		Depth: int32(len(r.stack)),
		Start: r.clock(),
		End:   -1,
		N:     -1,
	})
	r.stack = append(r.stack, idx)
	return Span{r: r, idx: idx}
}

// N annotates the span with an element count and returns it (chainable).
func (s Span) N(n int64) Span {
	if s.r != nil {
		s.r.spans[s.idx].N = n
	}
	return s
}

// Imb annotates the span with an imbalance factor and returns it.
func (s Span) Imb(x float64) Span {
	if s.r != nil {
		s.r.spans[s.idx].Imb = x
	}
	return s
}

// End closes the span. Spans should be ended in LIFO order; ending a
// non-top span closes it anyway and removes it from the open stack, so
// a missed inner End skews depths but cannot corrupt the recorder.
func (s Span) End() {
	r := s.r
	if r == nil {
		return
	}
	r.spans[s.idx].End = r.clock()
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == s.idx {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
}

// Counter returns the named counter cell, creating it on first use.
// Call sites that run hot should look the cell up once and keep the
// pointer. Returns nil on a nil recorder — and every Counter method is
// nil-safe, so the cached pointer needs no guard.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.byName[name]; c != nil {
		return c
	}
	c := &Counter{}
	r.byName[name] = c
	r.names = append(r.names, name)
	r.cells = append(r.cells, c)
	return c
}

// PeerSend records msgs messages of words total words sent to the given
// global rank.
func (r *Recorder) PeerSend(peer int, msgs, words int64) {
	if r == nil || peer < 0 || peer >= r.p {
		return
	}
	r.peers[peerCells*peer+0].Add(msgs)
	r.peers[peerCells*peer+1].Add(words)
}

// PeerRecv records msgs messages of words total words received from the
// given global rank.
func (r *Recorder) PeerRecv(peer int, msgs, words int64) {
	if r == nil || peer < 0 || peer >= r.p {
		return
	}
	r.peers[peerCells*peer+2].Add(msgs)
	r.peers[peerCells*peer+3].Add(words)
}

// CounterRec is one exported counter value.
type CounterRec struct {
	Name  string
	Value int64
}

// PeerRec is one exported per-peer traffic row.
type PeerRec struct {
	Peer      int32
	SentMsgs  int64
	SentWords int64
	RecvMsgs  int64
	RecvWords int64
}

// Snapshot is the serializable export of one rank's recorder — what
// the gather step moves to rank 0. ClockOffsetNS is the shift that was
// applied to the span timestamps during clock alignment (0 before
// alignment).
type Snapshot struct {
	Rank          int32
	P             int32
	ClockOffsetNS int64
	Spans         []SpanRec
	Counters      []CounterRec
	Peers         []PeerRec
}

// Snapshot exports the recorder's current state. Open spans are
// exported with End == -1. Safe to call from the PE goroutine while
// auxiliary goroutines are still bumping counters (their cells are
// atomic; the values are a consistent-enough post-run read).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Rank: -1}
	}
	snap := Snapshot{
		Rank:  int32(r.rank),
		P:     int32(r.p),
		Spans: append([]SpanRec(nil), r.spans...),
	}
	r.mu.Lock()
	for i, name := range r.names {
		snap.Counters = append(snap.Counters, CounterRec{Name: name, Value: r.cells[i].Value()})
	}
	r.mu.Unlock()
	for peer := 0; peer < r.p; peer++ {
		base := peerCells * peer
		rec := PeerRec{
			Peer:      int32(peer),
			SentMsgs:  r.peers[base+0].Load(),
			SentWords: r.peers[base+1].Load(),
			RecvMsgs:  r.peers[base+2].Load(),
			RecvWords: r.peers[base+3].Load(),
		}
		if rec.SentMsgs != 0 || rec.RecvMsgs != 0 || rec.SentWords != 0 || rec.RecvWords != 0 {
			snap.Peers = append(snap.Peers, rec)
		}
	}
	return snap
}

// Reset drops all recorded spans, counters, and peer traffic, keeping
// the registry's counter identities (cached *Counter pointers stay
// valid and are zeroed).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.spans = r.spans[:0]
	r.stack = r.stack[:0]
	r.mu.Lock()
	for _, c := range r.cells {
		c.v.Store(0)
	}
	r.mu.Unlock()
	for i := range r.peers {
		r.peers[i].Store(0)
	}
}
