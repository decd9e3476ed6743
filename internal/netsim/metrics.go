package netsim

import "repro/internal/obs"

// HTTP client metrics. Registered at init so the families appear in
// /metrics (with zero values) in any binary that links netsim, traffic or
// not. The server half (ServeConn) records nothing here: its callers
// count what they serve, and bytes in/out are the client's.
var (
	mHTTPRequests = obs.NewCounter("netsim_http_requests_total",
		"HTTP requests sent through the netsim client.")
	mHTTPRetries = obs.NewCounter("netsim_http_retries_total",
		"Requests replayed on a fresh conn after a pooled conn turned out dead.")
	mHTTPPoolHits = obs.NewCounter(`netsim_http_pool_total{result="hit"}`,
		"Idle-pool lookups by outcome (hit reuses a conn, miss dials).")
	mHTTPPoolMisses = obs.NewCounter(`netsim_http_pool_total{result="miss"}`,
		"Idle-pool lookups by outcome (hit reuses a conn, miss dials).")
	mHTTPBytesOut = obs.NewCounter(`netsim_http_bytes_total{dir="out"}`,
		"Bytes written/read by the fast-path client, by direction.")
	mHTTPBytesIn = obs.NewCounter(`netsim_http_bytes_total{dir="in"}`,
		"Bytes written/read by the fast-path client, by direction.")
	mHTTPLatency = obs.NewHistogram("netsim_http_request_latency_ns",
		"Request latency (write to response headers parsed, or Get's in-process handler call), ns.")
)
