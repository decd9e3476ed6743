package core

import (
	"context"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// Scenario experiments: the §8 what-if questions run through the
// ecosystem simulator (internal/scenario). They register after the paper
// reproductions (this file sorts after experiments.go), so existing
// output order is unchanged.
func init() {
	register(Experiment{"scenario-baseline", "Scenario engine: baseline replay of the observed §5 world", runScenarioBaseline})
	register(Experiment{"scenario-adoption", "Counterfactual: what if robots.txt adoption quadrupled (§8)", runScenarioAdoption})
	register(Experiment{"scenario-rogue", "Counterfactual: a rogue non-compliant crawler joins mid-study (§8)", runScenarioRogue})
	register(Experiment{"scenario-manager", "Counterfactual sweep: managed robots.txt service uptake (§8.1)", runScenarioManager})
}

// scenarioSites scales an ecosystem size with the configured corpus
// scale, keeping enough sites for the sampled cohorts to be populated.
func scenarioSites(cfg Config, base int) int {
	n := int(float64(base)*cfg.Scale + 0.5)
	if n < 24 {
		n = 24
	}
	return n
}

// scenarioMonths is the simulated window of the counterfactual runs:
// two years from October 2022, matching the paper's study window.
const scenarioMonths = 24

// runScenarioBaseline checks the simulator against the seed measurement:
// replaying the observed world (two instrumented sites, the passive
// fleet) must reproduce the §5 verdict classes from simulated logs.
func runScenarioBaseline(ctx context.Context, env *Env) (*Result, error) {
	sim, err := env.scenario(ctx, scenario.Baseline(env.Config.Seed))
	if err != nil {
		return nil, err
	}
	passive, err := env.PassiveMeasurement(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"product token", "scenario verdict", "measured verdict (§5)", "match"}}
	matches := 0
	for _, tok := range sim.Tokens() {
		got := sim.Verdicts[tok]
		want, observed := passive.Verdicts[tok]
		ok := observed && got == want
		if ok {
			matches++
		}
		mark := "yes"
		if !ok {
			mark = "NO"
		}
		t.Rows = append(t.Rows, []string{tok, got.String(), want.String(), mark})
	}
	return &Result{
		ID:    "scenario-baseline",
		Title: "Scenario engine validation: baseline replay vs the §5 passive measurement",
		Sections: []Section{{
			Table: t,
			Notes: []string{
				fmt.Sprintf("verdict classes agree for %d of %d observed crawlers", matches, len(sim.Tokens())),
				fmt.Sprintf("replay drove %d crawl visits; %d KiB fetched from disallowed paths",
					sim.TotalVisits, sim.TotalDisallowedBytes/1024),
				"both worlds classify from unmodified webserver logs; the engine adds only the virtual clock",
			},
		}},
	}, nil
}

// runScenarioAdoption contrasts the observed adoption curve with a 4×
// counterfactual: robots.txt adoption alone cannot stop non-compliant
// crawlers — the violation volume grows with the number of sites whose
// policies are being ignored.
func runScenarioAdoption(ctx context.Context, env *Env) (*Result, error) {
	sites := scenarioSites(env.Config, 400)
	observed, err := env.scenario(ctx, scenario.Observed(env.Config.Seed, sites, scenarioMonths))
	if err != nil {
		return nil, err
	}
	high, err := env.scenario(ctx, scenario.HighAdoption(env.Config.Seed, sites, scenarioMonths, 4))
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"month", "adoption", "adoption 4x", "violation KiB", "violation KiB 4x", "respect", "respect 4x"}}
	for m := range observed.Months {
		o, h := observed.Months[m], high.Months[m]
		t.Rows = append(t.Rows, []string{
			o.Label,
			pct(stats.Percent(o.AdoptedSites, sites)), pct(stats.Percent(h.AdoptedSites, sites)),
			fmt.Sprintf("%d", o.DisallowedBytes/1024), fmt.Sprintf("%d", h.DisallowedBytes/1024),
			pct(100 * o.RespectRate()), pct(100 * h.RespectRate()),
		})
	}
	obsSeries := observed.DisallowedKBSeries()
	obsSeries.Name = "violation KiB (observed)"
	highSeries := high.DisallowedKBSeries()
	highSeries.Name = "violation KiB (4x adoption)"
	return &Result{
		ID:    "scenario-adoption",
		Title: fmt.Sprintf("High-adoption counterfactual over %d sites, %d months", sites, scenarioMonths),
		Sections: []Section{{
			Table:  t,
			Series: []stats.Series{obsSeries, highSeries},
			Notes: []string{
				fmt.Sprintf("total bytes crawled from disallowed paths: %d KiB observed vs %d KiB at 4x adoption",
					observed.TotalDisallowedBytes/1024, high.TotalDisallowedBytes/1024),
				"more adoption means more violations, not fewer: compliant crawlers already skip, and non-compliers ignore the new rules (§8)",
			},
		}},
	}, nil
}

// runScenarioRogue adds an undocumented non-complier mid-run against a
// control world with the same blocking rollout: UA rule lists catch the
// announced fleet but are blind to the newcomer.
func runScenarioRogue(ctx context.Context, env *Env) (*Result, error) {
	sites := scenarioSites(env.Config, 400)
	withRogue := scenario.RogueCrawler(env.Config.Seed, sites, scenarioMonths)
	control := scenario.RogueCrawler(env.Config.Seed, sites, scenarioMonths)
	control.Name = "rogue-control"
	control.Description = "the rogue world without the rogue: same fleet, same blocking rollout"
	control.Crawlers = control.Crawlers[:len(control.Crawlers)-1]

	ctl, err := env.scenario(ctx, control)
	if err != nil {
		return nil, err
	}
	rogue, err := env.scenario(ctx, withRogue)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"month", "violation KiB (control)", "violation KiB (rogue)", "blocked reqs (control)", "blocked reqs (rogue)"}}
	for m := range ctl.Months {
		c, r := ctl.Months[m], rogue.Months[m]
		t.Rows = append(t.Rows, []string{
			c.Label,
			fmt.Sprintf("%d", c.DisallowedBytes/1024), fmt.Sprintf("%d", r.DisallowedBytes/1024),
			count(c.BlockedRequests), count(r.BlockedRequests),
		})
	}
	ctlSeries := ctl.DisallowedKBSeries()
	ctlSeries.Name = "violation KiB (control)"
	rogueSeries := rogue.DisallowedKBSeries()
	rogueSeries.Name = "violation KiB (rogue)"
	rogueVerdict := rogue.Verdicts["Scrapezilla"]
	return &Result{
		ID:    "scenario-rogue",
		Title: fmt.Sprintf("Rogue-crawler counterfactual: Scrapezilla joins at month %d", scenarioMonths/2),
		Sections: []Section{{
			Table:  t,
			Series: []stats.Series{ctlSeries, rogueSeries},
			Notes: []string{
				fmt.Sprintf("rogue verdict from simulated logs: %s", rogueVerdict),
				fmt.Sprintf("extra blocked requests attributable to the rogue: %d (UA rule lists never name it)",
					rogue.TotalBlockedRequests-ctl.TotalBlockedRequests),
				fmt.Sprintf("violation volume rises from %d to %d KiB once the rogue arrives",
					ctl.TotalDisallowedBytes/1024, rogue.TotalDisallowedBytes/1024),
			},
		}},
	}, nil
}

// scenarioUptakeLevels is the managed-service sweep grid.
var scenarioUptakeLevels = []float64{0, 0.25, 0.5, 0.75, 1}

// runScenarioManager sweeps managed robots.txt uptake and reports the
// coverage gap hand-maintained lists accumulate (§8.1): the maintenance
// burden the managed services exist to absorb.
func runScenarioManager(ctx context.Context, env *Env) (*Result, error) {
	sites := scenarioSites(env.Config, 240)
	t := &Table{Headers: []string{"managed uptake", "adopters", "managed", "final coverage gap", "mean gap over run"}}
	var gapSeries []stats.Series
	for _, uptake := range scenarioUptakeLevels {
		res, err := env.scenario(ctx, scenario.ManagedUptake(env.Config.Seed, sites, scenarioMonths, uptake))
		if err != nil {
			return nil, err
		}
		last := res.Months[len(res.Months)-1]
		var gaps []float64
		for _, m := range res.Months {
			if m.GapSites > 0 {
				gaps = append(gaps, 100*m.StaticGap())
			}
		}
		t.Rows = append(t.Rows, []string{
			pct(100 * uptake), count(last.AdoptedSites), count(last.ManagedSites),
			pct(100 * last.StaticGap()), pct(stats.Mean(gaps)),
		})
		if uptake == 0 || uptake == 1 {
			s := res.GapSeries()
			s.Name = fmt.Sprintf("gap %% at %.0f%% uptake", 100*uptake)
			gapSeries = append(gapSeries, s)
		}
	}
	return &Result{
		ID:    "scenario-manager",
		Title: fmt.Sprintf("Managed robots.txt uptake sweep over %d sites", sites),
		Sections: []Section{{
			Table:  t,
			Series: gapSeries,
			Notes: []string{
				"hand-written per-agent lists silently lose coverage as new agents are announced; managed lists track the registry (§8.1)",
				"compare experiment maintenance-gap: the same effect measured on one frozen list instead of an ecosystem",
			},
		}},
	}, nil
}
