// Command bench is the repository's benchmark of record: six named
// workloads over the serving, simulation and registry paths, four
// end-to-end metrics every workload reports, and a per-layer ladder
// from a separate traced run. See README.md for every workload and
// metric by name; BENCHMARK.json at the repository root is rendered
// from the same tables (bench -manifest).
//
// One run measures one workload:
//
//	bash bench/run.sh -workload fleet-frame-mixed -seed 7 -seconds 10 -trace 0
//
// and -selfcheck judges two sets of ten such runs of every workload.
//
// It prints every metric by name with its unit, and as its last line
// one JSON object with the keys correct, attempted, failed and metrics.
// With -trace 1 the run records a span around every call into a layer,
// reports the per-layer metrics instead, and writes bench/out/trace.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
)

// sizes fixes every input size of the benchmark. They are constants of
// the benchmark, not options: two runs compare only at the same sizes.
// Tests shrink them.
type sizes struct {
	corpusScale float64 // serving corpus; 0.25 is 10,114 hosts
	cycleLen    int     // queries in the cycle
	batch       int     // queries per RPB2 batch
	callers     int     // closed-loop callers, one connection each
	warmQueries int     // per caller, before timing
	window      time.Duration
	slice       time.Duration // measured stretch between two speedometer samples
	reloadEvery time.Duration
	setups      int           // set-ups per run; setup_s is their median
	sampleFor   time.Duration // how long one speedometer sample runs

	simMonths     int
	simHotSites   int
	simTailSites  int
	simTailHot    int
	simCheckSites int

	registry      core.Config
	registryCheck core.Config
	registryIDs   []string // experiments of one RunAll; nil is all of them
	scenarioIDs   []string // the experiments core.scenario_experiments_s times

	ladderCalls    int // calls per serving rung
	ladderHotSites int
	ladderTail     int
	ladderPlan     int
}

func defaultSizes() sizes {
	reg := core.DefaultConfig()
	reg.Scale = 0.1
	check := core.QuickConfig()
	check.Scale = 0.02
	return sizes{
		corpusScale: 0.25,
		cycleLen:    1 << 16,
		batch:       64,
		callers:     runtime.GOMAXPROCS(0),
		warmQueries: 4096,
		window:      250 * time.Millisecond,
		slice:       time.Second,
		reloadEvery: time.Second,
		setups:      3,
		sampleFor:   60 * time.Millisecond,

		simMonths:     12,
		simHotSites:   300,
		simTailSites:  100_000,
		simTailHot:    21,
		simCheckSites: 100,

		registry:      reg,
		registryCheck: check,
		scenarioIDs:   []string{"scenario-baseline", "scenario-adoption", "scenario-rogue", "scenario-manager"},

		ladderCalls:    20_000,
		ladderHotSites: 100,
		ladderTail:     50_000,
		ladderPlan:     20_000,
	}
}

// values maps a metric name to its measured value.
type values map[string]float64

// result is what one run of one workload reports.
type result struct {
	attempted, failed int64
	metrics           values
	notes             []string
	diags             []diagLine
}

// diagLine is a diagnostic an untraced run prints beside its metrics:
// it moves nothing and is not part of the result object.
type diagLine struct {
	name, unit string
	value      float64
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) diag(name string, v float64, unit string) {
	r.diags = append(r.diags, diagLine{name, unit, v})
}

// normalise restates the end-to-end metrics, which were measured in
// seconds of this machine during this run, in seconds of the reference
// machine (see speedometer), and keeps the measured values as
// diagnostics.
func (r *result) normalise(sp *speedometer) {
	f := sp.factor()
	r.diag("bench.machine_speed", f, "ratio")
	r.diag("bench.raw_work_per_s", r.metrics["work_per_s"], "1/s")
	r.diag("bench.raw_call_p50_us", r.metrics["call_p50_us"], "us")
	r.diag("bench.raw_setup_s", r.metrics["setup_s"], "s")
	r.metrics["work_per_s"] /= f
	for _, name := range []string{"call_p50_us", "call_p90_us", "setup_s"} {
		r.metrics[name] *= f
	}
	r.notef("machine speed %.3f of the reference over %d samples; the end-to-end metrics are in reference-machine seconds", f, len(sp.samples))
}

// tracePath is where the traced run writes, relative to the checkout
// root the benchmark runs from.
const tracePath = "bench/out/trace.json"

// runWorkload is one run of the named workload; with a tracer it
// records a span around every call.
func runWorkload(ctx context.Context, sz sizes, name string, seed int64, seconds float64, tr *tracer) (*result, error) {
	switch name {
	case wlFleetFrameMixed, wlReplicaFrameDirect, wlFleetJSONReload:
		return runServing(ctx, sz, name, seed, seconds, tr)
	case wlSimHot, wlSimTail:
		return runSim(ctx, sz, name, seed, seconds, tr)
	case wlRegistry:
		return runRegistry(ctx, sz, seed, seconds, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricLine is the text form of one metric; -selfcheck reads it back.
func metricLine(name string, v float64, unit string) string {
	return fmt.Sprintf("metric %-34s %16.6g %s", name, v, unit)
}

// movesLine says, under a per-layer metric, which end-to-end metric on
// which workload it is predicted to move.
func movesLine(moves string) string {
	return "       should move: " + moves
}

// report prints a run: notes, every metric by name with its unit (a
// per-layer metric with what it should move), and the result object as
// the last line.
func report(name string, defs []metricDef, r *result) error {
	fmt.Printf("== %s\n", name)
	for _, n := range r.notes {
		fmt.Printf("   %s\n", n)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.Name)
		}
		fmt.Println(metricLine(d.Name, v, d.Unit))
		if d.Moves != "" {
			fmt.Println(movesLine(d.Moves))
		}
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	for _, d := range r.diags {
		fmt.Println(metricLine(d.name, d.value, d.unit))
	}
	fmt.Printf("   failed_share %d/%d\n", r.failed, r.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "how long the run measures")
	trace := flag.Int("trace", 0, "1: record spans, report the per-layer metrics, write bench/out/trace.json")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of ten runs of every workload and judge them against the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		b, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1, -seconds must be positive, and there are no positional arguments")
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	if !slices.Contains(workloadNames(), *workload) {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %s\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	ctx := context.Background()
	var r *result
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		r, err = runTraced(ctx, defaultSizes(), *workload, *seed, *seconds, tracePath)
	} else {
		r, err = runWorkload(ctx, defaultSizes(), *workload, *seed, *seconds, nil)
	}
	if err == nil {
		err = report(*workload, defs, r)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
