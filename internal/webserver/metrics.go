package webserver

import "repro/internal/obs"

// Farm hosting metrics. Site cardinality is unbounded in scenarios, so
// only farm-level aggregates live in the registry; a site's own traffic
// is its log.
var (
	mFarmRequests = obs.NewCounter("farm_requests_total",
		"Requests the farm dispatched to a site (matched hosts only).")
	mFarmUnmatched = obs.NewCounter("farm_unmatched_total",
		"Requests answered 421 because no site claims the Host header.")
)
