package netsim

import "repro/internal/obs"

// HTTP client metrics. Registered at init so the family appears in
// /metrics (with a zero value) in any binary that links netsim, traffic
// or not. Only the netsim client records here: a handler counts what it
// serves. No request is timed: a simulated fetch reads no wall clock,
// and the scenario's hot-stage histogram times its crawl waves.
var mHTTPRequests = obs.NewCounter("netsim_http_requests_total",
	"HTTP requests sent through the netsim client.")
