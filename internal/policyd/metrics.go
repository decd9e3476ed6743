package policyd

import (
	"fmt"

	"repro/internal/obs"
)

// Service metrics. The decision matrix is 3 actions × 6 signals of
// pre-registered counters so the hot path indexes an array instead of
// formatting labels; DecideBatch accumulates on the stack and flushes
// once per batch.
var mDecisions = func() (m [Block + 1][signalMeta + 1]*obs.Counter) {
	for a := allow; a <= Block; a++ {
		for sig := signalNone; sig <= signalMeta; sig++ {
			m[a][sig] = obs.NewCounter(
				fmt.Sprintf(`policyd_decisions_total{action=%q,signal=%q}`, a.String(), sig.String()),
				"Decisions served, by outcome action and winning signal.")
		}
	}
	return m
}()

var (
	mBatchSize = obs.NewHistogram("policyd_batch_size",
		"Queries per DecideBatch call.")
	mSwaps = obs.NewCounter("policyd_snapshot_swaps_total",
		"Snapshot hot swaps installed on the service.")
	mCompileNS = obs.NewHistogram("policyd_compile_duration_ns",
		"Wall-clock spent compiling a corpus month into a snapshot, ns.")
	mWireJSON = obs.NewCounter(`policyd_wire_requests_total{wire="json"}`,
		"Wire-level decision requests, by protocol (one frame batch or one HTTP request each).")
	mWireFrame = obs.NewCounter(`policyd_wire_requests_total{wire="frame"}`,
		"Wire-level decision requests, by protocol (one frame batch or one HTTP request each).")
	mCompileReused = obs.NewCounter(`policyd_compile_hosts_total{mode="reused"}`,
		"Hosts whose compiled policy was carried over from the previous snapshot (incremental build).")
	mCompileFresh = obs.NewCounter(`policyd_compile_hosts_total{mode="compiled"}`,
		"Hosts compiled from their raw policy surface during a snapshot build.")
	mJSONStages = NewJSONStages("replica")
)

// JSONStages are one JSON listener's stage clocks, in ns, recorded for
// every answered /v1/decide and /v1/batch request: Parse turns the
// query string or body into queries, Answer runs the Answerer, Encode
// writes the response body.
type JSONStages struct {
	Parse, Answer, Encode *obs.Histogram
}

// NewJSONStages registers the stage clocks of one kind of listener
// ("replica", "gateway") as policyd_json_stage_ns{listener,stage}.
func NewJSONStages(listener string) JSONStages {
	stage := func(name string) *obs.Histogram {
		return obs.NewHistogram(fmt.Sprintf(`policyd_json_stage_ns{listener=%q,stage=%q}`, listener, name),
			"Wall-clock per JSON API request stage (parse, answer, encode), ns.")
	}
	return JSONStages{Parse: stage("parse"), Answer: stage("answer"), Encode: stage("encode")}
}

// countDecision records one decision in the action×signal matrix.
// Bounds are clamped defensively: a corrupted enum must not panic the
// serving path.
func countDecision(d Decision) {
	if d.Action > Block || d.Signal > signalMeta {
		return
	}
	mDecisions[d.Action][d.Signal].Inc()
}
