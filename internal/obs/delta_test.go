package obs

import (
	"strings"
	"testing"
)

// renderJSON snapshots a registry the way the run store does.
func renderJSON(t *testing.T, r *Registry) []byte {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

func TestSnapshotDelta(t *testing.T) {
	ra := newRegistry()
	ca := ra.NewCounter("requests_total", "")
	ga := ra.NewGauge("pool_size", "")
	ha := ra.NewHistogram("latency_ns", "")
	ra.NewCounter("steady_total", "").Add(5)
	ca.Add(10)
	ga.Set(3)
	ha.Observe(100)
	ha.Observe(300)
	snapA := renderJSON(t, ra)

	rb := newRegistry()
	cb := rb.NewCounter("requests_total", "")
	gb := rb.NewGauge("pool_size", "")
	hb := rb.NewHistogram("latency_ns", "")
	rb.NewCounter("steady_total", "").Add(5)
	rb.NewCounter("appeared_total", "").Add(1)
	cb.Add(25)
	gb.Set(3)
	hb.Observe(100)
	hb.Observe(300)
	hb.Observe(500)
	snapB := renderJSON(t, rb)

	deltas, err := SnapshotDelta(snapA, snapB)
	if err != nil {
		t.Fatal(err)
	}

	byName := make(map[string]Delta, len(deltas))
	for i, d := range deltas {
		byName[d.Name] = d
		if i > 0 && deltas[i-1].Name >= d.Name {
			t.Errorf("deltas not sorted: %q before %q", deltas[i-1].Name, d.Name)
		}
	}

	// Changed counter.
	if d, ok := byName["requests_total"]; !ok || d.A != 10 || d.B != 25 || d.Diff != 15 || !d.InA || !d.InB {
		t.Errorf("requests_total delta = %+v", byName["requests_total"])
	}
	// Histogram expands to _count/_sum.
	if d, ok := byName["latency_ns_count"]; !ok || d.Diff != 1 {
		t.Errorf("latency_ns_count delta = %+v", byName["latency_ns_count"])
	}
	if d, ok := byName["latency_ns_sum"]; !ok || d.Diff != 500 {
		t.Errorf("latency_ns_sum delta = %+v", byName["latency_ns_sum"])
	}
	// New family carries InA=false.
	if d, ok := byName["appeared_total"]; !ok || d.InA || !d.InB || d.B != 1 {
		t.Errorf("appeared_total delta = %+v", byName["appeared_total"])
	}
	// Unchanged metrics are omitted.
	if _, ok := byName["steady_total"]; ok {
		t.Error("unchanged steady_total reported")
	}
	if _, ok := byName["pool_size"]; ok {
		t.Error("unchanged pool_size reported")
	}
}

func TestSnapshotDeltaIdentical(t *testing.T) {
	r := newRegistry()
	r.NewCounter("c_total", "").Add(4)
	r.NewHistogram("h_ns", "").Observe(7)
	snap := renderJSON(t, r)
	deltas, err := SnapshotDelta(snap, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("identical snapshots produced %d deltas: %+v", len(deltas), deltas)
	}
}

func TestSnapshotDeltaDisappeared(t *testing.T) {
	ra := newRegistry()
	ra.NewCounter("gone_total", "").Add(9)
	snapA := renderJSON(t, ra)
	snapB := renderJSON(t, newRegistry())
	deltas, err := SnapshotDelta(snapA, snapB)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1: %+v", len(deltas), deltas)
	}
	d := deltas[0]
	if d.Name != "gone_total" || !d.InA || d.InB || d.A != 9 || d.Diff != -9 {
		t.Errorf("disappeared delta = %+v", d)
	}
}

func TestSnapshotDeltaMalformed(t *testing.T) {
	good := renderJSON(t, newRegistry())
	for _, bad := range []string{
		`not json`,
		`{"weird": "string-value"}`,
		`{"weird": {"nested": true}}`,
	} {
		if _, err := SnapshotDelta([]byte(bad), good); err == nil {
			t.Errorf("SnapshotDelta(%q, good) succeeded", bad)
		}
		if _, err := SnapshotDelta(good, []byte(bad)); err == nil {
			t.Errorf("SnapshotDelta(good, %q) succeeded", bad)
		}
	}
}
