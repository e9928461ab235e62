package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pmsort/internal/comm"
)

// tick returns a deterministic clock advancing by step per call.
func tick(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

func TestSpanNestingAndBalance(t *testing.T) {
	r := NewRecorder(0, 1, tick(10))
	root := r.Start(SpanAMS).N(100)
	lvl := r.StartLevel(SpanLevel, 0).N(100)
	cls := r.StartLevel(SpanClassify, 0).N(100).Imb(1.25)
	cls.End()
	ex := r.StartLevel(SpanExchange, 0)
	ex.End()
	ex.N(90) // annotating after End must still land on the record
	lvl.End()
	root.End()

	if got := len(r.stack); got != 0 {
		t.Fatalf("open-span stack not drained: %d entries", got)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(snap.Spans))
	}
	wantDepth := []int32{0, 1, 2, 2}
	wantLevel := []int32{-1, 0, 0, 0}
	for i, sp := range snap.Spans {
		if sp.Depth != wantDepth[i] || sp.Level != wantLevel[i] {
			t.Errorf("span %d %q: depth=%d level=%d, want %d/%d",
				i, sp.Name, sp.Depth, sp.Level, wantDepth[i], wantLevel[i])
		}
		if sp.End < sp.Start {
			t.Errorf("span %d %q not closed: [%d,%d]", i, sp.Name, sp.Start, sp.End)
		}
	}
	if snap.Spans[2].Imb != 1.25 {
		t.Errorf("classify imbalance lost: %v", snap.Spans[2].Imb)
	}
	if snap.Spans[3].N != 90 {
		t.Errorf("post-End annotation lost: N=%d", snap.Spans[3].N)
	}
	// Containment: children inside their parent's interval.
	if snap.Spans[1].Start < snap.Spans[0].Start || snap.Spans[1].End > snap.Spans[0].End {
		t.Error("level span escapes its root span")
	}
	if err := (&Trace{Snaps: []Snapshot{snap}}).Validate(); err != nil {
		t.Fatalf("single-rank trace invalid: %v", err)
	}
}

func TestSpanNonLIFOEndTolerated(t *testing.T) {
	r := NewRecorder(0, 1, tick(1))
	a := r.Start("a")
	b := r.Start("b")
	a.End() // out of order
	b.End()
	if len(r.stack) != 0 {
		t.Fatalf("stack not drained after non-LIFO ends: %d", len(r.stack))
	}
	for _, sp := range r.Snapshot().Spans {
		if sp.End < sp.Start {
			t.Errorf("span %q left open", sp.Name)
		}
	}
}

func TestCountersAndReset(t *testing.T) {
	r := NewRecorder(2, 4, tick(1))
	c := r.Counter("x")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("Add: got %d", c.Value())
	}
	if again := r.Counter("x"); again != c {
		t.Fatal("Counter must return a stable cell per name")
	}
	g := r.Counter("g")
	g.Max(5)
	g.Max(2)
	g.Max(9)
	if g.Value() != 9 {
		t.Fatalf("Max: got %d", g.Value())
	}
	r.PeerSend(1, 2, 100)
	r.PeerRecv(3, 1, 50)
	r.PeerSend(-1, 1, 1) // out of range: ignored
	r.PeerRecv(4, 1, 1)
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || len(snap.Peers) != 2 {
		t.Fatalf("snapshot: %d counters, %d peer rows", len(snap.Counters), len(snap.Peers))
	}
	if snap.Peers[0].Peer != 1 || snap.Peers[0].SentWords != 100 ||
		snap.Peers[1].Peer != 3 || snap.Peers[1].RecvWords != 50 {
		t.Fatalf("peer rows wrong: %+v", snap.Peers)
	}

	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("Reset must zero cached counter cells")
	}
	after := r.Snapshot()
	if len(after.Spans) != 0 || len(after.Peers) != 0 {
		t.Error("Reset must drop spans and peer traffic")
	}
}

// untraced is a communicator whose endpoint is not a Source.
var untraced = comm.NewGroup(plainEndpoint{}, comm.WorldRanks(1), 0)

type plainEndpoint struct{}

func (plainEndpoint) Send(int, int, any, int64)  {}
func (plainEndpoint) Recv(int, int) (any, int64) { return nil, 0 }
func (plainEndpoint) Cost([]int) comm.Cost       { return comm.WallClock{} }

func TestNilRecorderSafeAndFrom(t *testing.T) {
	var r *Recorder
	sp := r.Start("x").N(1).Imb(2)
	sp.End()
	r.Counter("y").Add(1)
	r.Counter("y").Max(1)
	r.PeerSend(0, 1, 1)
	r.PeerRecv(0, 1, 1)
	if r.Now() != 0 || r.Rank() != -1 {
		t.Error("nil recorder Now/Rank")
	}
	if s := r.Snapshot(); s.Rank != -1 {
		t.Errorf("nil recorder snapshot rank %d", s.Rank)
	}
	r.Reset()
	if From(untraced) != nil {
		t.Error("From of a non-Source must be nil")
	}
}

// The disabled path is the acceptance-critical one: recording calls on
// a nil recorder must not allocate.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	var c *Counter
	allocs := testing.AllocsPerRun(200, func() {
		sp := r.Start(SpanClassify).N(100).Imb(1.5)
		sp.End()
		r.StartLevel(SpanLevel, 3).End()
		c.Add(1)
		c.Max(2)
		r.PeerSend(1, 1, 10)
		r.PeerRecv(1, 1, 10)
		_ = r.Now()
		_ = From(untraced)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %.1f allocs/op", allocs)
	}
}

// buildTrace makes a deterministic two-rank trace.
func buildTrace() *Trace {
	var snaps []Snapshot
	for rank := 0; rank < 2; rank++ {
		r := NewRecorder(rank, 2, tick(int64(rank+1)*5))
		root := r.Start(SpanAMS).N(1000)
		lvl := r.StartLevel(SpanLevel, 0).N(1000)
		r.StartLevel(SpanClassify, 0).N(1000).Imb(1.1).End()
		lvl.End()
		root.End()
		r.Counter(CtrEmitNS).Add(1234)
		r.PeerSend(1-rank, 1, 500)
		snaps = append(snaps, r.Snapshot())
	}
	return &Trace{Snaps: snaps}
}

func TestChromeExportValidJSON(t *testing.T) {
	tr := buildTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int32          `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	meta, complete, counters := 0, 0, 0
	lastTs := map[int32]float64{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %q: negative ts/dur %v/%v", ev.Name, ev.Ts, ev.Dur)
			}
			if ev.Ts < lastTs[ev.Pid] {
				t.Errorf("pid %d: timestamps not monotone (%v after %v)", ev.Pid, ev.Ts, lastTs[ev.Pid])
			}
			lastTs[ev.Pid] = ev.Ts
		case "C":
			counters++
		default:
			t.Errorf("unknown event phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 6 || counters == 0 {
		t.Fatalf("event mix: %d meta, %d complete, %d counter", meta, complete, counters)
	}
}

func TestReportMentionsEverything(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{SpanAMS, SpanClassify, CtrEmitNS, "rank 0/2", "rank 1/2", "peer"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	base := func() *Trace { return buildTrace() }

	tr := base()
	tr.Snaps = tr.Snaps[:1] // rank 1 missing
	if err := tr.Validate(); err == nil {
		t.Error("missing rank must fail validation")
	}

	tr = base()
	tr.Snaps[1].Rank = 0 // duplicate rank
	if err := tr.Validate(); err == nil {
		t.Error("duplicate rank must fail validation")
	}

	tr = base()
	tr.Snaps[0].Spans[2].End = -1 // unclosed span
	if err := tr.Validate(); err == nil {
		t.Error("unclosed span must fail validation")
	}

	tr = base()
	tr.Snaps[0].Spans[2].Start = tr.Snaps[0].Spans[1].Start - 1 // out of order
	if err := tr.Validate(); err == nil {
		t.Error("non-monotone starts must fail validation")
	}

	tr = base()
	tr.Snaps[0].Spans[2].End = tr.Snaps[0].Spans[1].End + 1000 // escapes parent
	if err := tr.Validate(); err == nil {
		t.Error("child escaping its parent must fail validation")
	}
}

// BenchmarkObsSpanDisabled pins the disabled fast path: a full
// start/annotate/end cycle against a nil recorder. This must stay
// allocation-free and in the very-low ns/op range — it is the only cost
// the instrumented sorters pay when tracing is off.
func BenchmarkObsSpanDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartLevel(SpanClassify, 1).N(int64(i)).Imb(1.0)
		sp.End()
	}
}

func BenchmarkObsSpanEnabled(b *testing.B) {
	var now int64
	r := NewRecorder(0, 1, func() int64 { now++; return now })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartLevel(SpanClassify, 1).N(int64(i)).Imb(1.0)
		sp.End()
		if len(r.spans) >= 1<<16 {
			b.StopTimer()
			r.Reset()
			b.StartTimer()
		}
	}
}

func BenchmarkObsCounterDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsCounterEnabled(b *testing.B) {
	r := NewRecorder(0, 1, tick(1))
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsPeerSendDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PeerSend(0, 1, 64)
	}
}

func BenchmarkObsPeerSendEnabled(b *testing.B) {
	r := NewRecorder(0, 4, tick(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PeerSend(i&3, 1, 64)
	}
}
