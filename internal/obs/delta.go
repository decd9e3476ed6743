package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Delta is one metric's drift between two rendered JSON snapshots.
// Histograms contribute two deltas, `name_count` and `name_sum`, since
// bucket-level drift is rarely actionable across runs.
type Delta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	// Diff is B - A. For counters a negative value usually means the
	// snapshots came from different processes, not a decrement.
	Diff float64 `json:"diff"`
	// InA/InB distinguish "changed" from "appeared"/"disappeared" —
	// a family registered in only one of the two revisions.
	InA bool `json:"in_a"`
	InB bool `json:"in_b"`
}

// SnapshotDelta diffs two snapshots rendered by WriteJSON into
// counter/gauge deltas, sorted by metric name. Metrics with identical
// values on both sides are omitted; metrics present on only one side are
// reported with the corresponding In* flag cleared. The input order does
// matter: deltas read as "what changed going from a to b". The snapshots
// carry their own metric universe, so no registry state is needed to
// diff them.
func SnapshotDelta(a, b []byte) ([]Delta, error) {
	av, err := parseSnapshot(a)
	if err != nil {
		return nil, fmt.Errorf("obs: snapshot a: %w", err)
	}
	bv, err := parseSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("obs: snapshot b: %w", err)
	}
	names := make(map[string]struct{}, len(av)+len(bv))
	for n := range av {
		names[n] = struct{}{}
	}
	for n := range bv {
		names[n] = struct{}{}
	}
	var out []Delta
	for n := range names {
		x, inA := av[n]
		y, inB := bv[n]
		if inA && inB && x == y {
			continue
		}
		out = append(out, Delta{Name: n, A: x, B: y, Diff: y - x, InA: inA, InB: inB})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// histogramJSON mirrors WriteJSON's histogram object.
type histogramJSON struct {
	Count *float64 `json:"count"`
	Sum   *float64 `json:"sum"`
}

// parseSnapshot flattens a WriteJSON document into name → value:
// counters and gauges map directly, histograms expand to _count/_sum.
func parseSnapshot(data []byte) (map[string]float64, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for name, msg := range raw {
		var v float64
		if err := json.Unmarshal(msg, &v); err == nil {
			out[name] = v
			continue
		}
		var h histogramJSON
		if err := json.Unmarshal(msg, &h); err != nil || h.Count == nil || h.Sum == nil {
			return nil, fmt.Errorf("metric %q: neither scalar nor histogram", name)
		}
		out[name+"_count"] = *h.Count
		out[name+"_sum"] = *h.Sum
	}
	return out, nil
}
