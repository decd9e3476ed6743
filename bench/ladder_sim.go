package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/netsim"
	"repro/internal/robots"
	"repro/internal/scenario"
	"repro/internal/webserver"
)

// simLadder fills in the simulation per-layer metrics from small runs
// of each tier and from the substrates a hot site-month is made of.
func (l *ladder) simLadder(ctx context.Context, sz sizes, seed int64) error {
	v := l.vals
	workers := runtime.GOMAXPROCS(0)
	timed := func(name string, s simSpec, w int, st *scenario.TierStats) (float64, error) {
		id := l.tr.begin(name, -1, 0)
		wall, _, err := runTiered(ctx, seed, s, w, st)
		l.tr.end(id)
		l.attempted += int64(s.sites * s.months)
		return wall.Seconds(), err
	}

	// Every site hot, on all workers and on one, after a warm-up so that
	// neither pays for the process's cold caches.
	hot := simSpec{sites: sz.ladderHotSites, months: sz.simMonths, hot: sz.ladderHotSites}
	if _, _, err := runTiered(ctx, seed, simSpec{sites: max(hot.sites/5, 2), months: hot.months, hot: hot.sites}, workers, nil); err != nil {
		return err
	}
	var hotStats scenario.TierStats
	c0 := robots.SharedCacheStats()
	wallN, err := timed("scenario.RunTiered hot", hot, workers, &hotStats)
	if err != nil {
		return err
	}
	c1 := robots.SharedCacheStats()
	wall1, err := timed("scenario.RunTiered hot workers=1", hot, 1, nil)
	if err != nil {
		return err
	}
	v["scenario.hot_site_month_us"] = wallN * 1e6 * float64(workers) / float64(hotStats.HotSiteMonths)
	v["scenario.worker_scaling"] = wall1 / wallN
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	v["robots.cache_hit_ratio"] = hits / (hits + misses)

	// Nothing pinned hot: the columnar path, planning and promotions.
	tail := simSpec{sites: sz.ladderTail, months: sz.simMonths}
	var tailStats scenario.TierStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wallT, err := timed("scenario.RunTiered cold", tail, workers, &tailStats)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	siteMonths := float64(tail.sites * tail.months)
	v["scenario.cold_site_month_ns"] = wallT * 1e9 / float64(tailStats.ColdSiteMonths)
	v["scenario.promoted_share"] = float64(tailStats.HotSiteMonths) / siteMonths
	v["scenario.wave_replay_ratio"] = float64(tailStats.ReplayedWaves) / float64(tailStats.CompiledWaves+tailStats.ReplayedWaves)
	v["scenario.wave_classes"] = float64(tailStats.WaveClasses)
	v["scenario.columnar_bytes_per_site"] = tailStats.BytesPerSite(tail.sites)
	v["scenario.alloc_bytes_per_site_month"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / siteMonths

	id := l.tr.begin("scenario.SitePlans", -1, 0)
	t := time.Now()
	if _, err := scenario.SitePlans(scenario.Observed(seed, sz.ladderPlan, sz.simMonths)); err != nil {
		return err
	}
	v["scenario.plan_us_per_site"] = float64(time.Since(t)) / 1e3 / float64(sz.ladderPlan)
	l.tr.end(id)

	// What a hot site-month is made of.
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.240")
	if err != nil {
		return err
	}
	defer farm.Close()
	v["webserver.site_start_us"] = l.rung("webserver.Farm.StartSite+Remove", sz.ladderCalls/10, func(int) bool {
		site, err := farm.StartSite(webserver.WildcardDisallowSite("start.test", "203.0.113.211"))
		return err == nil && farm.Remove(site) == nil
	}).p50
	site, err := farm.StartSite(webserver.Config{
		Domain: "crawl.test", IP: "203.0.113.212", Pages: webserver.ContentPages("crawl.test"),
	})
	if err != nil {
		return err
	}
	cr, err := crawler.New(nw, crawler.Profile{Token: "GPTBot", SourceIP: "24.0.1.98", Behavior: crawler.Compliant})
	if err != nil {
		return err
	}
	v["crawler.site_crawl_us"] = l.rung("crawler.Crawler.Crawl", sz.ladderCalls/50, func(int) bool {
		_, err := cr.Crawl(ctx, site.URL())
		return err == nil
	}).p50

	// robots: the longest body among the corpus's first sites.
	c, err := corpus.New(ctx, corpus.Config{Seed: seed, Scale: 0.01})
	if err != nil {
		return err
	}
	body := ""
	for _, s := range c.Sites() {
		if b := c.RobotsBody(s, len(corpus.Snapshots)-1); len(b) > len(body) {
			body = b
		}
	}
	v["robots.parse_us"] = l.rung("robots.ParseString", sz.ladderCalls/4, func(int) bool {
		return robots.ParseString(body) != nil
	}).p50
	v["robots.parse_cached_ns"] = l.rungBlock("robots.ParseCached", sz.ladderCalls/100, 1000, func(int) {
		robots.ParseCached(body)
	}).p50
	acc := robots.ParseString(body).Agent("GPTBot")
	v["robots.match_ns"] = l.rungBlock("robots.Access.Allowed", sz.ladderCalls/100, 1000, func(i int) {
		acc.Allowed(queryPaths[i%len(queryPaths)])
	}).p50
	return nil
}

// registryLadder times the substrates of the registry workload one by
// one on a fresh Env, then the scenario experiments, then the whole
// registry sequentially and in parallel.
func (l *ladder) registryLadder(ctx context.Context, sz sizes, seed int64) error {
	v := l.vals
	cfg := sz.registry
	cfg.Seed = seed
	env := core.NewEnv(cfg)
	root := l.tr.begin("core.Env substrates", -1, 0)
	substrates := 0.0
	for _, s := range []struct {
		metric, span string
		get          func() error
	}{
		{"corpus.build_s", "core.Env.Corpus", func() error { _, err := env.Corpus(ctx); return err }},
		{"longitudinal.analyze_s", "core.Env.Longitudinal", func() error { _, err := env.Longitudinal(ctx); return err }},
		{"blocking.survey_s", "core.Env.BlockingSurvey", func() error { _, err := env.BlockingSurvey(ctx, blocking.DefaultDetector); return err }},
		{"proxy.inference_survey_s", "core.Env.InferenceSurvey", func() error { _, err := env.InferenceSurvey(ctx); return err }},
		{"measure.passive_s", "core.Env.PassiveMeasurement", func() error { _, err := env.PassiveMeasurement(ctx); return err }},
		{"measure.active_s", "core.Env.ActiveMeasurement", func() error { _, err := env.ActiveMeasurement(ctx); return err }},
	} {
		id := l.tr.begin(s.span, root, 0)
		t := time.Now()
		if err := s.get(); err != nil {
			return fmt.Errorf("%s: %w", s.span, err)
		}
		d := time.Since(t).Seconds()
		l.tr.end(id)
		substrates += d
		v[s.metric] = d
	}
	l.tr.end(root)

	nproc := runtime.GOMAXPROCS(0)
	timed := func(span string, parallelism int, ids []string) (float64, error) {
		id := l.tr.begin(span, -1, 0)
		wall, _, n, err := runAll(ctx, cfg, parallelism, ids)
		l.tr.end(id)
		l.attempted += int64(n)
		return wall.Seconds(), err
	}
	var err error
	if v["core.scenario_experiments_s"], err = timed("core.RunAll scenario-*", nproc, sz.scenarioIDs); err != nil {
		return err
	}
	seq, err := timed("core.RunAll Parallelism=1", 1, sz.registryIDs)
	if err != nil {
		return err
	}
	par, err := timed("core.RunAll", nproc, sz.registryIDs)
	if err != nil {
		return err
	}
	v["core.experiments_self_s"] = seq - substrates
	v["core.parallel_speedup"] = seq / par
	return nil
}

// memSysMB is the memory the Go runtime has obtained from the system,
// which only grows: the process's footprint at its largest.
func memSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runTraced is the traced run: the named workload for a fifth of the
// interval with a span around every call, then the per-layer ladders,
// which do not depend on the workload. It reports the per-layer metrics
// and writes trace.json with the spans, their summary, and the budget.
func runTraced(ctx context.Context, sz sizes, name string, seed int64, seconds float64, tracePath string) (*result, error) {
	tr := newTracer(time.Now(), 1<<20)
	sz.setups = 1
	wr, err := runWorkload(ctx, sz, name, seed, seconds/5, tr)
	if err != nil {
		return nil, fmt.Errorf("traced %s: %w", name, err)
	}

	l := &ladder{tr: tr, vals: values{}, attempted: wr.attempted, failed: wr.failed}
	rows, err := l.servingLadder(ctx, sz, seed)
	if err != nil {
		return nil, fmt.Errorf("serving ladder: %w", err)
	}
	if err := l.simLadder(ctx, sz, seed); err != nil {
		return nil, fmt.Errorf("simulation ladder: %w", err)
	}
	if err := l.registryLadder(ctx, sz, seed); err != nil {
		return nil, fmt.Errorf("registry ladder: %w", err)
	}
	for _, d := range wr.diags {
		if d.name == "bench.precheck_s" || d.name == "bench.machine_speed" {
			l.vals[d.name] = d.value
		}
	}
	l.vals["bench.mem_sys_mb"] = memSysMB()

	r := &result{attempted: l.attempted, failed: l.failed, metrics: l.vals, notes: wr.notes}
	r.notef("traced: %s for %.1fs, then the ladders (netsim, in-process; one caller per rung, %d calls per rung)", name, seconds/5, sz.ladderCalls)
	r.notef("%-28s %10s %10s %10s %7s", "layer", "p50 us", "p90 us", "self us", "share")
	for _, row := range rows {
		r.notef("%-28s %10.2f %10.2f %10.2f %6.1f%%", row.Layer, row.P50us, row.P90us, row.SelfUs, row.Share*100)
		if row.SelfUs < 0 {
			r.notef("  ^ negative self time: the rungs below read slower than this one; the machine was disturbed")
		}
	}
	summary := summarizeSpans(tr.spans)
	for _, s := range summary {
		r.notef("span %-52s n=%-7d p50 %10.2f us  p90 %10.2f us  self %9.2f ms", s.Name, s.Count, s.P50us, s.P90us, s.SelfMs)
	}
	if err := writeTrace(tracePath, traceFile{Workload: name, Seed: seed, Summary: summary, Ladder: rows, Metrics: l.vals}, tr.spans); err != nil {
		return nil, err
	}
	r.notef("wrote %s (%d spans; at most %d of a name listed)", tracePath, len(tr.spans), maxSpansPerName)
	return r, nil
}
