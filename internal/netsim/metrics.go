package netsim

import "repro/internal/obs"

// HTTP client metrics. Registered at init so the families appear in
// /metrics (with zero values) in any binary that links netsim, traffic or
// not. Only the netsim client records here: a handler counts what it
// serves.
var (
	mHTTPRequests = obs.NewCounter("netsim_http_requests_total",
		"HTTP requests sent through the netsim client.")
	mHTTPLatency = obs.NewHistogram("netsim_http_request_latency_ns",
		"Request latency (routing and the in-process handler call), ns.")
)
