package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one request share Req; Parent is the span that
// caused this one, -1 for a root. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. It is owned by one goroutine; callers
// that run in parallel each get their own and merge them afterwards. A
// nil tracer records nothing, which is how the untraced run pays only a
// nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// merge appends other tracers' spans, renumbering IDs and parents so
// they stay unique and consistent.
func (t *tracer) merge(others ...*tracer) {
	if t == nil {
		return
	}
	for _, o := range others {
		if o == nil {
			continue
		}
		off := int32(len(t.spans))
		for _, s := range o.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			t.spans = append(t.spans, s)
		}
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Overlapping children are counted
// once: the covered part is the union of their intervals, clipped to
// the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32) // parent ID -> indices of its children
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		coveredTo := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < coveredTo {
				lo = coveredTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self[i] -= hi - lo
				coveredTo = hi
			}
		}
	}
	return self
}

// spanSummary is one row of the per-name span table.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	type acc struct {
		durs        []float64
		total, self int64
	}
	byName := make(map[string]*acc)
	var names []string
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.durs = append(a.durs, float64(s.End-s.Start)/1e3)
		a.total += s.End - s.Start
		a.self += self[i]
	}
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		a := byName[n]
		d := newDist(a.durs)
		out = append(out, spanSummary{
			Name: n, Count: d.n, P50us: d.p50, P90us: d.p90,
			TotalMs: float64(a.total) / 1e6, SelfMs: float64(a.self) / 1e6,
		})
	}
	return out
}

// ladderRow is one line of the serving budget: a layer's measured
// round trip and the part of fleet.gateway_rtt_mixed_us it owns.
type ladderRow struct {
	Layer  string  `json:"layer"`
	P50us  float64 `json:"p50_us"`
	P90us  float64 `json:"p90_us"`
	SelfUs float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

// budget splits the mixed-batch gateway round trip into the self time
// of each rung below it. Every rung's self time is its own p50 minus
// the rungs it contains, so the shares sum to 1 by construction.
func budget(decide, codec, conn, frame, single, mixed dist) []ladderRow {
	rows := []ladderRow{
		{Layer: "policyd.decide_batch", P50us: decide.p50, P90us: decide.p90, SelfUs: decide.p50},
		{Layer: "policyd.codec", P50us: codec.p50, P90us: codec.p90, SelfUs: codec.p50},
		{Layer: "netsim.conn_rtt", P50us: conn.p50, P90us: conn.p90, SelfUs: conn.p50},
		{Layer: "policyd.frame_rtt", P50us: frame.p50, P90us: frame.p90, SelfUs: frame.p50 - conn.p50 - codec.p50 - decide.p50},
		{Layer: "fleet.gateway_rtt_single", P50us: single.p50, P90us: single.p90, SelfUs: single.p50 - frame.p50},
		{Layer: "fleet.gateway_rtt_mixed", P50us: mixed.p50, P90us: mixed.p90, SelfUs: mixed.p50 - single.p50},
	}
	for i := range rows {
		if mixed.p50 > 0 {
			rows[i].Share = rows[i].SelfUs / mixed.p50
		}
	}
	return rows
}

// maxSpansPerName caps how many spans of one name trace.json lists; the
// summaries are computed over all of them.
const maxSpansPerName = 200

// traceFile is what the traced run writes at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Summary  []spanSummary      `json:"span_summary"`
	Ladder   []ladderRow        `json:"ladder"`
	Metrics  map[string]float64 `json:"metrics"`
}

// writeTrace lists the first spans of every name and writes the file.
func writeTrace(path string, tf traceFile, all []span) error {
	kept := make(map[string]int)
	for _, s := range all {
		if kept[s.Name] < maxSpansPerName {
			kept[s.Name]++
			tf.Spans = append(tf.Spans, s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
