package main

import "encoding/json"

// metricDef is one named metric of the benchmark. Bound is set for
// end-to-end metrics only: the share of the parent's median by which
// the metric may worsen before a change counts as a regression. Moves
// is set for per-layer metrics only: the end-to-end metric and workload
// the layer metric is predicted to move (the README's "moves" table).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string
	Why  string
}

const (
	wlFleetFrameMixed    = "fleet-frame-mixed"
	wlReplicaFrameDirect = "replica-frame-direct"
	wlFleetJSONReload    = "fleet-json-reload"
	wlSimHot             = "sim-hot"
	wlSimTail            = "sim-tail"
	wlRegistry           = "registry"
)

var workloads = []workloadDef{
	{wlFleetFrameMixed, "RPB2 batches of 64 mixed-host queries (zipf 1.1, roster agents) through the gateway to 2 replicas: admit, ring, scatter, serial replica visits and reorder do most of the work"},
	{wlReplicaFrameDirect, "the identical query cycle sent straight to one replica: bypasses fleet, so a gateway change must not move it while codec, netsim conn and Decide changes move it most"},
	{wlFleetJSONReload, "75% GET /v1/decide, 25% POST /v1/batch of 8 via the gateway: uniform hosts, 20% non-roster agents, 5% unknown hosts, recompile+SwapAll each second; a cache that needs skew or skips invalidation pays"},
	{wlSimHot, "scenario.RunTiered, observed world, 300 sites x 12 months, all hot: webserver farm, netsim HTTP, crawler, robots cache, measure dominate. work_per_s, call_p50_us, call_p90_us restate one median wall"},
	{wlSimTail, "RunTiered, 100000 sites x 12 mo, 21 hot: planning, columnar state, wave replay, promotion, merge; a hot win taxing per-site state pays. work_per_s, call_p50_us, call_p90_us restate one median wall"},
	{wlRegistry, "core.RunAll, all 24 paper artifacts, DefaultConfig at scale 0.1, NDJSON to a buffer: what cmd/somesite users wait on. work_per_s, call_p50_us, call_p90_us restate one median wall"},
}

// endToEnd holds the metrics every workload reports. The unit of work
// and the call differ per workload (see README.md): decisions and one
// frame batch or JSON request on the serving workloads, site-months and
// one RunTiered on the simulation workloads, experiments and one RunAll
// on the registry workload. On the simulation and registry workloads a
// run holds a handful of calls, so work_per_s, call_p50_us and
// call_p90_us are one measurement — the median wall of a call — stated
// three ways, and count once when judging a change.
var endToEnd = []metricDef{
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "call_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "call_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	allServing = "all three serving workloads"
	onMixed    = "work_per_s, call_p50_us on fleet-frame-mixed; no change predicted on replica-frame-direct"
	onDirect   = "call_p50_us on replica-frame-direct"
	onReload   = "fleet-json-reload"
	onSimHot   = "work_per_s on sim-hot"
	onSimTail  = "work_per_s on sim-tail"
	onRegistry = "call_p50_us, work_per_s on registry"
	movesNone  = "moves nothing; bounds how far the other numbers can be trusted"
)

// perLayer holds the metrics of the traced run, one layer (module) per
// name prefix. The serving rungs all answer the same 64-query batch
// with one caller.
var perLayer = []metricDef{
	{Name: "policyd.decide_batch_us", Unit: "us", Better: "lower", Moves: "work_per_s, call_p50_us on " + allServing},
	{Name: "policyd.fastpath_decide_ns", Unit: "ns", Better: "lower", Moves: "work_per_s, call_p50_us on " + allServing},
	{Name: "policyd.slowpath_decide_ns", Unit: "ns", Better: "lower", Moves: "work_per_s on " + onReload + " only (20% non-roster agents)"},
	{Name: "policyd.allocs_per_batch", Unit: "count", Better: "lower", Moves: "work_per_s on " + allServing},
	{Name: "policyd.codec_us", Unit: "us", Better: "lower", Moves: onDirect + " (once) and fleet-frame-mixed (3 legs); nothing on fleet-json-reload's client leg"},
	{Name: "netsim.conn_rtt_us", Unit: "us", Better: "lower", Moves: "call_p50_us on " + allServing + "; " + onSimHot + " (same pipe)"},
	{Name: "policyd.frame_rtt_us", Unit: "us", Better: "lower", Moves: onDirect},
	{Name: "policyd.frame_rtt_p90_us", Unit: "us", Better: "lower", Moves: "call_p90_us on replica-frame-direct"},
	{Name: "policyd.frame_self_us", Unit: "us", Better: "lower", Moves: onDirect},
	{Name: "fleet.gateway_rtt_single_us", Unit: "us", Better: "lower", Moves: onMixed},
	{Name: "fleet.gateway_rtt_mixed_us", Unit: "us", Better: "lower", Moves: onMixed},
	{Name: "fleet.gateway_rtt_mixed_p90_us", Unit: "us", Better: "lower", Moves: "call_p90_us on fleet-frame-mixed"},
	{Name: "fleet.gateway_self_us", Unit: "us", Better: "lower", Moves: onMixed},
	{Name: "fleet.scatter_self_us", Unit: "us", Better: "lower", Moves: onMixed + "; at 0 call_p50_us falls to fleet.gateway_rtt_single_us"},
	{Name: "fleet.admit_ns", Unit: "ns", Better: "lower", Moves: onMixed},
	{Name: "fleet.ring_pick_ns", Unit: "ns", Better: "lower", Moves: onMixed},
	{Name: "fleet.route_skew", Unit: "ratio", Better: "lower", Moves: onMixed},
	{Name: "fleet.allocs_per_call", Unit: "count", Better: "lower", Moves: onMixed},
	{Name: "policyd.json_decide_us", Unit: "us", Better: "lower", Moves: "call_p50_us on " + onReload},
	{Name: "fleet.json_decide_us", Unit: "us", Better: "lower", Moves: "call_p50_us on " + onReload},
	{Name: "fleet.json_self_us", Unit: "us", Better: "lower", Moves: "call_p50_us on " + onReload},
	{Name: "policyd.compile_full_ms", Unit: "ms", Better: "lower", Moves: "setup_s on " + allServing},
	{Name: "policyd.compile_incr_ms", Unit: "ms", Better: "lower", Moves: "work_per_s, call_p90_us on " + onReload + " (shares the cores with reads), not call_p50_us"},
	{Name: "policyd.hosts_reused_share", Unit: "ratio", Better: "higher", Moves: "policyd.compile_incr_ms, and through it " + onReload},
	{Name: "fleet.swap_visible_ms", Unit: "ms", Better: "lower", Moves: "call_p90_us on " + onReload},
	{Name: "fleet.repinned_share", Unit: "ratio", Better: "lower", Moves: "call_p90_us on " + onReload},
	{Name: "policyd.frame_rtt_tcp_us", Unit: "us", Better: "lower", Moves: "informational: workloads run on netsim, so no end-to-end metric"},
	{Name: "fleet.gateway_rtt_tcp_us", Unit: "us", Better: "lower", Moves: "informational: workloads run on netsim, so no end-to-end metric"},
	{Name: "netsim.http_get_us", Unit: "us", Better: "lower", Moves: onSimHot + "; " + onRegistry},
	{Name: "netsim.http_allocs_per_get", Unit: "count", Better: "lower", Moves: onSimHot + "; " + onRegistry},

	{Name: "scenario.hot_site_month_us", Unit: "us", Better: "lower", Moves: onSimHot + "; reaches sim-tail only through scenario.promoted_share"},
	{Name: "scenario.cold_site_month_ns", Unit: "ns", Better: "lower", Moves: onSimTail},
	{Name: "scenario.plan_us_per_site", Unit: "us", Better: "lower", Moves: onSimTail},
	{Name: "scenario.promoted_share", Unit: "ratio", Better: "lower", Moves: onSimTail},
	{Name: "scenario.wave_replay_ratio", Unit: "ratio", Better: "higher", Moves: onSimTail},
	{Name: "scenario.wave_classes", Unit: "count", Better: "lower", Moves: onSimTail},
	{Name: "scenario.columnar_bytes_per_site", Unit: "B", Better: "lower", Moves: onSimTail},
	{Name: "scenario.worker_scaling", Unit: "ratio", Better: "higher", Moves: "caps how far per-site-month cost moves work_per_s on sim-hot and sim-tail"},
	{Name: "scenario.alloc_bytes_per_site_month", Unit: "B", Better: "lower", Moves: onSimTail},
	{Name: "webserver.site_start_us", Unit: "us", Better: "lower", Moves: onSimHot},
	{Name: "crawler.site_crawl_us", Unit: "us", Better: "lower", Moves: onSimHot},
	{Name: "robots.parse_us", Unit: "us", Better: "lower", Moves: onSimHot + "; setup_s on " + allServing + " (compile parses through the same cache)"},
	{Name: "robots.parse_cached_ns", Unit: "ns", Better: "lower", Moves: onSimHot + "; setup_s on " + allServing},
	{Name: "robots.match_ns", Unit: "ns", Better: "lower", Moves: onSimHot + "; policyd.fastpath_decide_ns"},
	{Name: "robots.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: onSimHot},

	{Name: "corpus.build_s", Unit: "s", Better: "lower", Moves: onRegistry + "; setup_s on " + allServing},
	{Name: "longitudinal.analyze_s", Unit: "s", Better: "lower", Moves: onRegistry},
	{Name: "blocking.survey_s", Unit: "s", Better: "lower", Moves: onRegistry},
	{Name: "proxy.inference_survey_s", Unit: "s", Better: "lower", Moves: onRegistry},
	{Name: "measure.passive_s", Unit: "s", Better: "lower", Moves: onRegistry},
	{Name: "measure.active_s", Unit: "s", Better: "lower", Moves: onRegistry},
	{Name: "core.scenario_experiments_s", Unit: "s", Better: "lower", Moves: onRegistry + "; the line re-routing Env.Scenario through the tiered engine should collapse"},
	{Name: "core.experiments_self_s", Unit: "s", Better: "lower", Moves: onRegistry},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher", Moves: onRegistry},

	{Name: "bench.gen_self_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "bench.call_p99_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "bench.disturbed_window_share", Unit: "ratio", Better: "lower", Moves: movesNone},
	{Name: "bench.paced_null_p99_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: movesNone},
	{Name: "bench.machine_speed", Unit: "ratio", Better: "higher", Moves: "every end-to-end metric is divided by it; the per-layer metrics are not, so compare them at like speeds"},
	{Name: "bench.precheck_s", Unit: "s", Better: "lower", Moves: movesNone},
	{Name: "bench.mem_sys_mb", Unit: "MB", Better: "lower", Moves: movesNone},
}

// runSeconds is how long one run measures; the driver passes it back
// as -seconds.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables above, so the file at
// the repository root and the program cannot name different metrics.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
