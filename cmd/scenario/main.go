// Command scenario runs one counterfactual ecosystem simulation from a
// JSON spec file or a named built-in world, standalone from the
// experiment engine.
//
// Usage:
//
//	scenario -list                        # built-in worlds
//	scenario -builtin rogue-crawler       # run a built-in
//	scenario -spec world.json             # run a spec file
//	scenario -spec world.json -sites 500 -months 36 -workers 8
//	scenario -builtin baseline-replay -format json | jq .Verdicts
//	scenario -dump high-adoption          # print a built-in as JSON to edit
//	scenario -builtin observed-world -sites 100000 -hot 64
//
// Identical specs produce bit-identical results at any -workers and any
// -hot value: -hot pins that many sites to full-fidelity simulation
// (live sites, real HTTP) and only changes how fast the run gets there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "path to a JSON scenario spec")
		builtin  = fs.String("builtin", "", "name of a built-in scenario (see -list)")
		list     = fs.Bool("list", false, "list built-in scenarios and exit")
		dump     = fs.String("dump", "", "print a built-in scenario's spec as JSON and exit")
		seed     = fs.Int64("seed", 0, "override the spec's random seed")
		sites    = fs.Int("sites", 0, "override the spec's site count")
		months   = fs.Int("months", 0, "override the spec's month count")
		workers  = fs.Int("workers", 0, "site-simulation pool size (0 = GOMAXPROCS)")
		hot      = fs.Int("hot", 32, "sites pinned to full-fidelity simulation (cost dial: output is identical at any value)")
		format   = fs.String("format", "text", "output format: text or json")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		metrics  = fs.String("metrics", "", "write obs metrics (Prometheus text) to this file at end of run (- = stderr)")
		storeDir = fs.String("store", "", "persist the run to this run-store directory (see cmd/rundiff)")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write a heap profile to this file at end of run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *list:
		for _, s := range scenario.Builtins() {
			fmt.Fprintf(stdout, "%-20s %4d sites %3d months  %s\n", s.Name, s.Sites, s.Months, s.Description)
		}
		return 0
	case *dump != "":
		s, ok := scenario.BuiltinByName(*dump)
		if !ok {
			fmt.Fprintf(stderr, "scenario: unknown builtin %q (try -list)\n", *dump)
			return 2
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 1
		}
		return 0
	}

	var spec scenario.Spec
	switch {
	case *specPath != "" && *builtin != "":
		fmt.Fprintln(stderr, "scenario: -spec and -builtin are mutually exclusive")
		return 2
	case *specPath != "":
		s, err := scenario.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 2
		}
		spec = s
	case *builtin != "":
		s, ok := scenario.BuiltinByName(*builtin)
		if !ok {
			fmt.Fprintf(stderr, "scenario: unknown builtin %q (try -list)\n", *builtin)
			return 2
		}
		spec = s
	default:
		fmt.Fprintln(stderr, "scenario: need -spec FILE or -builtin NAME (or -list)")
		return 2
	}

	if *seed != 0 {
		spec.Seed = *seed
	}
	if *sites != 0 {
		spec.Sites = *sites
	}
	if *months != 0 {
		spec.Months = *months
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "scenario: unknown format %q (want text or json)\n", *format)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stopCPU, err := obs.StartCPUProfile(*cpuprof)
	if err != nil {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
		return 1
	}

	// Open the store before the run, so a bad -store fails before any
	// work; the run is saved only once it has finished.
	var st *runstore.Store
	var meta runstore.Meta
	if *storeDir != "" {
		if st, err = runstore.Open(*storeDir); err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 1
		}
		meta = runstore.NewMeta(runstore.KindScenario, spec.Name, spec.Seed, spec.CacheKey())
	}

	start := time.Now()
	var tierStats scenario.TierStats
	res, err := scenario.RunTiered(ctx, spec, scenario.TierOptions{
		HotSites: *hot, Workers: *workers, Stats: &tierStats,
	})
	elapsed := time.Since(start) // the run, not the store, profile and metrics writes below
	stopCPU()
	if err != nil {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
		return 1
	}
	if st != nil {
		id, err := st.SaveScenario(meta, res)
		if err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "scenario: stored run %s in %s\n", id, *storeDir)
	}
	if err := obs.WriteHeapProfile(*memprof); err != nil {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
		return 1
	}
	if err := obs.DumpMetrics(*metrics); err != nil {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
		return 1
	}

	if *format == "json" {
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 1
		}
		return 0
	}
	writeText(stdout, res, elapsed)
	writeTierStats(stdout, spec, tierStats)
	return 0
}

// writeTierStats appends the engine's tier accounting to the text
// report: how the site-months split across tiers, the wave cache's
// compile/replay economics, the long-tail footprint, and where the time
// went.
func writeTierStats(w io.Writer, spec scenario.Spec, ts scenario.TierStats) {
	fmt.Fprintf(w, "(tiered: %d hot + %d cold site-months; "+
		"%d wave classes compiled, %d replayed; %.1f B/site columnar)\n",
		ts.HotSiteMonths, ts.ColdSiteMonths, ts.WaveClasses, ts.ReplayedWaves, ts.BytesPerSite(spec.Sites))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "(phases, summed over workers: plan %.1f ms, hot %.1f ms, cold %.1f ms; merge %.1f ms)\n",
		ms(ts.PlanNS), ms(ts.HotNS), ms(ts.ColdNS), ms(ts.MergeNS))
}

// writeText renders the run as an aligned monthly report.
func writeText(w io.Writer, res *scenario.Result, elapsed time.Duration) {
	sp := res.Spec
	fmt.Fprintf(w, "=== scenario %s ===\n", sp.Name)
	if sp.Description != "" {
		fmt.Fprintf(w, "%s\n", sp.Description)
	}
	fmt.Fprintf(w, "%d sites, %d months from %s, seed %d\n\n", sp.Sites, sp.Months, sp.Start, sp.Seed)

	fmt.Fprintf(w, "  %-9s %8s %8s %8s %7s %9s %12s %8s %7s\n",
		"month", "adopted", "managed", "blocking", "visits", "respect", "violationKiB", "blocked", "gap")
	for _, m := range res.Months {
		fmt.Fprintf(w, "  %-9s %8d %8d %8d %7d %8.1f%% %12d %8d %6.1f%%\n",
			m.Label, m.AdoptedSites, m.ManagedSites, m.ActiveBlockers, m.Visits,
			100*m.RespectRate(), m.DisallowedBytes/1024, m.BlockedRequests, 100*m.StaticGap())
	}

	fmt.Fprintf(w, "\n  %-24s %s\n", "violation KiB", res.DisallowedKBSeries().Sparkline())
	fmt.Fprintf(w, "  %-24s %s\n", "adoption %", res.AdoptionSeries().Sparkline())
	fmt.Fprintf(w, "  %-24s %s\n", "static-list gap %", res.GapSeries().Sparkline())

	fmt.Fprintf(w, "\n  crawler verdicts (from simulated server logs):\n")
	for _, tok := range res.Tokens() {
		fmt.Fprintf(w, "    %-22s %s\n", tok, res.Verdicts[tok])
	}
	fmt.Fprintf(w, "\n(%d visits, %d KiB from disallowed paths, %d blocked requests; ran in %v)\n",
		res.TotalVisits, res.TotalDisallowedBytes/1024, res.TotalBlockedRequests,
		elapsed.Round(time.Millisecond))
}
