package netsim

import "repro/internal/obs"

// HTTP client metrics. Registered at init so the families appear in
// /metrics (with zero values) in any binary that links netsim, traffic or
// not. The wire half of ServeHTTP, a stock http.Server, records nothing
// here: its callers count what they serve.
var (
	mHTTPRequests = obs.NewCounter("netsim_http_requests_total",
		"HTTP requests sent through the netsim client.")
	mHTTPLatency = obs.NewHistogram("netsim_http_request_latency_ns",
		"Request latency (routing and the in-process handler call), ns.")
)
