package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pmsort/internal/obs"
)

// Bench-owned span names: workload -> op -> rank wrap every call into the
// product; a recorder's own spans (where one exists) nest under "rank".
// The op id rides in the span's N annotation, so all spans of one op
// share it.
const (
	spanWorkload = "bench.workload"
	spanOp       = "bench.op"
	spanRank     = "bench.rank"
)

// benchTrace keeps a traced run's spans in memory, one row per rank (or
// per client connection for the service), all on one clock: nanoseconds
// since t0. Rows reuse obs.SpanRec so the product's exporter and its
// nesting check serve the bench's spans too.
type benchTrace struct {
	t0   time.Time
	rows [][]obs.SpanRec
}

// sinceNS is the bench clock: nanoseconds since t0.
func sinceNS(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }

func newBenchTrace(rows int) *benchTrace {
	bt := &benchTrace{t0: time.Now(), rows: make([][]obs.SpanRec, rows)}
	for row := range bt.rows {
		bt.add(row, spanWorkload, 0, 0, -1, -1)
	}
	return bt
}

func (bt *benchTrace) add(row int, name string, depth int, start, end, n int64) {
	bt.rows[row] = append(bt.rows[row], obs.SpanRec{Name: name, Level: -1, Depth: int32(depth), Start: start, End: end, N: n})
}

// addRec files a recorder's span under the bench spans: depth shifted
// below "rank", timestamps moved from the recorder's epoch to t0.
func (bt *benchTrace) addRec(row int, sp obs.SpanRec, depth int, epochNS int64) {
	sp.Depth += int32(depth)
	sp.Start += epochNS
	sp.End += epochNS
	bt.rows[row] = append(bt.rows[row], sp)
}

// finish closes the workload spans and returns the merged trace.
func (bt *benchTrace) finish() *obs.Trace {
	end := sinceNS(bt.t0)
	t := &obs.Trace{}
	for row, spans := range bt.rows {
		spans[0].End = end
		t.Snaps = append(t.Snaps, obs.Snapshot{Rank: int32(row), P: int32(len(bt.rows)), Spans: spans})
	}
	return t
}

// layerSelf is one row of layers-<workload>.json.
type layerSelf struct {
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the self time summed over all rows:
// a span's duration minus the part of it its direct children cover.
// Rows hold spans in start order with depths, so a span's children are
// the following spans one level deeper, up to the next span that is not
// deeper than it.
func selfTimes(t *obs.Trace) []layerSelf {
	agg := map[string]*layerSelf{}
	for _, snap := range t.Snaps {
		spans := snap.Spans
		for i, sp := range spans {
			var covered, reach int64 = 0, sp.Start
			for _, ch := range spans[i+1:] {
				if ch.Depth <= sp.Depth {
					break
				}
				if ch.Depth != sp.Depth+1 {
					continue
				}
				// Children may overlap only at instants; clip to be safe.
				from := max(ch.Start, reach)
				if ch.End > from {
					covered += ch.End - from
					reach = ch.End
				}
			}
			a := agg[sp.Name]
			if a == nil {
				a = &layerSelf{Span: sp.Name}
				agg[sp.Name] = a
			}
			a.Count++
			a.TotalMS += float64(sp.End-sp.Start) / 1e6
			a.SelfMS += float64(sp.End-sp.Start-covered) / 1e6
		}
	}
	out := make([]layerSelf, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeTraceArtefacts validates the merged trace and writes
// trace-<workload>.json (Chrome trace, one process row per rank) and
// layers-<workload>.json (self time per span name).
func writeTraceArtefacts(dir, workload string, t *obs.Trace, ops int) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("bench trace of %s: %w", workload, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	doc := struct {
		Workload string      `json:"workload"`
		Ops      int         `json:"traced_ops"`
		Rows     int         `json:"rows"`
		Note     string      `json:"note"`
		Layers   []layerSelf `json:"layers"`
	}{workload, ops, len(t.Snaps), "self time = span duration minus the part its child spans cover; summed over all rows and traced ops", selfTimes(t)}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers-"+workload+".json"), raw, 0o644)
}
