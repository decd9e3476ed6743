package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/agents"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/hosting"
	"repro/internal/manager"
	"repro/internal/measure"
	"repro/internal/metatags"
	"repro/internal/robots"
	"repro/internal/stats"
	"repro/internal/survey"
)

func init() {
	register(Experiment{"figure2", "Percent of sites fully disallowing ≥1 AI crawler (Stable Top 5k vs others)", runFigure2})
	register(Experiment{"figure3", "Percent of Stable Top 100k sites restricting each AI user agent", runFigure3})
	register(Experiment{"figure4", "Sites explicitly allowing AI crawlers and removing restrictions", runFigure4})
	register(Experiment{"table1", "AI user agents and robots.txt respect in practice (§5)", runTable1})
	register(Experiment{"table2", "Artist hosting providers and robots.txt control (§4.4)", runTable2})
	register(Experiment{"table3", "Corpus snapshots and robots.txt coverage", runTable3})
	register(Experiment{"table4", "Domains explicitly allowing GPTBot with first-seen snapshot", runTable4})
	register(Experiment{"survey-demographics", "Artist survey demographics (Tables 5–8)", runSurveyDemographics})
	register(Experiment{"survey-headline", "Artist survey headline findings (§4.2–4.3)", runSurveyHeadline})
	register(Experiment{"survey-codebook", "Open-answer codebook theme frequencies (Tables 9–12)", runSurveyCodebook})
	register(Experiment{"noai-meta", "NoAI meta tag adoption in the top 10k (§2.2)", runNoAIMeta})
	register(Experiment{"active-assistants", "AI assistant crawlers and robots.txt (§5.2.2)", runActiveAssistants})
	register(Experiment{"active-blocking", "Active blocking adoption in the top 10k (§6.2)", runActiveBlocking})
	register(Experiment{"cloudflare-greybox", "Grey-box inference of Block AI Bots rules (§6.3, App. C.3)", runGreyBox})
	register(Experiment{"figure7", "Inferring the Block AI Bots setting across Cloudflare sites", runFigure7})
	register(Experiment{"robots-lint", "robots.txt authoring mistakes (§8.1)", runRobotsLint})
	register(Experiment{"ablation-parsers", "Ablation: measurement error under non-compliant robots.txt parsers", runAblationParsers})
	register(Experiment{"ablation-detector", "Ablation: §6.1 detector features (status-only vs full)", runAblationDetector})
	register(Experiment{"maintenance-gap", "Extension: coverage lost by hand-maintained AI blocklists (§8.1)", runMaintenanceGap})
}

func seriesTable(headers []string, series ...stats.Series) *Table {
	t := &Table{Headers: headers}
	if len(series) == 0 || len(series[0].Points) == 0 {
		return t
	}
	for i := range series[0].Points {
		row := []string{series[0].Points[i].Label}
		for _, s := range series {
			row = append(row, pct(s.Points[i].Value))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func runFigure2(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.Longitudinal(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "figure2",
		Title: "Percent of sites that fully disallow at least one AI crawler user agent",
		Sections: []Section{
			{
				Heading: fmt.Sprintf("Populations: Stable Top 5k = %d sites, others = %d sites",
					res.Top5kCount, res.OtherCount),
				Table:  seriesTable([]string{"snapshot", "stable top 5k", "other sites"}, res.Fig2Top5k, res.Fig2Other),
				Series: []stats.Series{res.Fig2Top5k, res.Fig2Other},
				Notes: []string{
					"paper: surge after the Aug 2023 GPTBot announcement; 12–14% vs 8–10% by late 2024",
				},
			},
		},
	}, nil
}

func runFigure3(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.Longitudinal(ctx)
	if err != nil {
		return nil, err
	}
	var series []stats.Series
	for _, ua := range agents.Figure3Agents {
		series = append(series, res.Fig3[ua])
	}
	headers := append([]string{"snapshot"}, agents.Figure3Agents...)
	return &Result{
		ID:    "figure3",
		Title: "Percent of Stable Top 100k sites partially or fully disallowing each AI user agent",
		Sections: []Section{
			{
				Table:  seriesTable(headers, series...),
				Series: series,
				Notes: []string{
					"paper: GPTBot and CCBot are the most restricted; EU AI Act uptick after Aug 2024",
				},
			},
		},
	}, nil
}

func runFigure4(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.Longitudinal(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"snapshot", "explicitly allowed", "removed restrictions"}}
	for i := range res.Fig4Allowed.Points {
		t.Rows = append(t.Rows, []string{
			res.Fig4Allowed.Points[i].Label,
			fmt.Sprintf("%.0f", res.Fig4Allowed.Points[i].Value),
			fmt.Sprintf("%.0f", res.Fig4Removed.Points[i].Value),
		})
	}
	return &Result{
		ID:    "figure4",
		Title: "Explicit allows and restriction removals over time",
		Sections: []Section{
			{
				Table:  t,
				Series: []stats.Series{res.Fig4Allowed, res.Fig4Removed},
				Notes: []string{
					fmt.Sprintf("sites that removed a GPTBot restriction after its announcement: %d (paper: 484 at full scale)", res.GPTBotRemovals),
					"removal spikes align with the Dotdash/Stack Exchange (May 2024), Condé Nast (Aug 2024) and Vox Media (Oct 2024) deals",
				},
			},
		},
	}, nil
}

func runTable1(ctx context.Context, env *Env) (*Result, error) {
	passive, err := env.PassiveMeasurement(ctx)
	if err != nil {
		return nil, err
	}
	rows := measure.Table1Rows(passive)
	t := &Table{Headers: []string{"user agent", "category", "company", "publish IP", "claim respect", "respect in practice", "observed behaviour"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Agent.UserAgent, r.Agent.Category.String(), r.Agent.Company,
			r.Agent.PublishesIPs.String(), r.Agent.ClaimsRespect.String(),
			r.Measured.String(), r.Verdict.String(),
		})
	}
	return &Result{
		ID:    "table1",
		Title: "AI user agents studied and measured robots.txt respect",
		Sections: []Section{
			{
				Table: t,
				Notes: []string{
					fmt.Sprintf("passive study observed %d distinct crawlers", len(passive.Visitors)),
					"paper: 7 visitors respected robots.txt, Bytespider fetched-but-ignored, ChatGPT-User visited once anomalously",
				},
			},
		},
	}, nil
}

func runTable2(ctx context.Context, env *Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pop := hosting.GeneratePopulation(0, env.Config.Seed)
	rows := hosting.Table2(pop)
	sum := hosting.Summarize(pop)
	t := &Table{Headers: []string{"hosting provider", "% sites", "edit?", "% disallow AI"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Provider, pct(r.SharePct), r.Control.String(), pct(r.DisallowAIPct),
		})
	}
	return &Result{
		ID:    "table2",
		Title: "Top artist hosting providers and their robots.txt options",
		Sections: []Section{
			{
				Table: t,
				Notes: []string{
					fmt.Sprintf("AI-toggle adoption: %d of %d eligible sites (%s; paper: 49 of 293 = 17%%)",
						sum.ToggleEnabled, sum.ToggleEligible,
						pct(stats.Percent(sum.ToggleEnabled, sum.ToggleEligible))),
					"paper: only Carbonmade's defaults disallow AI crawlers; paid Wix allows editing but no artist edits",
				},
			},
		},
	}, nil
}

func runTable3(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.Longitudinal(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"snapshot", "months", "# sites", "+ robots.txt"}}
	for _, row := range res.Table3 {
		t.Rows = append(t.Rows, []string{row.Snapshot, row.Label, count(row.Sites), count(row.Robots)})
	}
	return &Result{
		ID:    "table3",
		Title: "Snapshots used in the historic AI crawler analysis",
		Sections: []Section{{
			Table: t,
			Notes: []string{fmt.Sprintf("counts scale with corpus scale %.2f; at 1.0 they match Table 3 exactly", env.Config.Scale)},
		}},
	}, nil
}

func runTable4(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.Longitudinal(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"site", "first-seen snapshot"}}
	for _, row := range res.Table4 {
		t.Rows = append(t.Rows, []string{row.Domain, row.FirstSeen})
	}
	return &Result{
		ID:    "table4",
		Title: "Domains that explicitly and fully allow GPTBot",
		Sections: []Section{{
			Table: t,
			Notes: []string{fmt.Sprintf("%d domains (paper's Table 4 lists 78)", len(res.Table4))},
		}},
	}, nil
}

func runSurveyDemographics(ctx context.Context, env *Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pop := env.surveyPopulation()

	t5 := &Table{Headers: []string{"duration", "count"}}
	total5 := 0
	for _, b := range []survey.IncomeBucket{survey.LessThan1Year, survey.OneToFiveYears,
		survey.FiveToTenYears, survey.TenPlusYears} {
		k := pop.Table5()[b]
		total5 += k
		t5.Rows = append(t5.Rows, []string{b.String(), count(k)})
	}
	t5.Rows = append(t5.Rows, []string{"Total", count(total5)})

	t6 := &Table{Headers: []string{"continent", "count"}}
	table6 := pop.Table6()
	for _, c := range []string{"North America", "Europe", "Asia", "South America", "Africa", "Oceania"} {
		t6.Rows = append(t6.Rows, []string{c, count(table6[c])})
	}

	t7 := &Table{Headers: []string{"art type", "count"}}
	for i, e := range pop.Table7() {
		if i >= 5 {
			break
		}
		t7.Rows = append(t7.Rows, []string{e.Key, count(e.Count)})
	}

	t8 := &Table{Headers: []string{"term", "average familiarity"}}
	table8 := pop.Table8()
	for _, term := range survey.Terms {
		t8.Rows = append(t8.Rows, []string{string(term), fmt.Sprintf("%.2f", table8[term])})
	}

	return &Result{
		ID:    "survey-demographics",
		Title: "Artist survey demographics",
		Sections: []Section{
			{Heading: "Table 5 — time making money from art", Table: t5},
			{Heading: "Table 6 — continent of residence", Table: t6},
			{Heading: "Table 7 — top five art types (multi-select)", Table: t7},
			{Heading: "Table 8 — term familiarity (1–5; bogus item in italics in the paper)", Table: t8},
		},
	}, nil
}

func runSurveyHeadline(ctx context.Context, env *Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pop := env.surveyPopulation()
	h := pop.ComputeHeadline()
	t := &Table{Headers: []string{"finding", "measured", "paper"}}
	add := func(name, measured, paper string) {
		t.Rows = append(t.Rows, []string{name, measured, paper})
	}
	add("valid responses", count(h.N), "203")
	add("professional artists", pct(h.ProfessionalPct), "67%")
	add("make money from art", pct(h.MakesMoneyPct), "87%")
	add("never heard of robots.txt", pct(h.NeverHeardRobotsPct), "59%")
	add("understood after explanation", count(h.UnderstoodAfterCount), "113 of 119")
	add("expect ≥moderate job impact", pct(h.ModerateImpactPlusPct), "over 79%")
	add("expect significant/severe impact", pct(h.SignificantPlusPct), "more than 54%")
	add("took protective action", pct(h.TookActionPct), "83%")
	add("Glaze among action-takers", pct(h.GlazeAmongActorsPct), "71%")
	add("very likely to enable blocking", pct(h.VeryLikelyBlockPct), "93%")
	add("want a blocking mechanism", pct(h.WantBlockPct), "over 97%")
	add("distrust AI companies (new to robots.txt)", pct(h.DistrustAmongNewPct), "77%")
	add("aware + personal site", count(h.AwareWithSite), "38")
	add("of those, not using robots.txt", count(h.AwareSiteNotUsing), "27")
	add("of those, no control over robots.txt", count(h.AwareSiteNoControl), "9")
	add("of those, multi-platform limitation", count(h.MultiPlatform), "5")
	return &Result{
		ID:       "survey-headline",
		Title:    "Artist survey headline findings",
		Sections: []Section{{Table: t}},
	}, nil
}

func runSurveyCodebook(ctx context.Context, env *Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pop := env.surveyPopulation()
	var sections []Section
	titles := map[string]string{
		survey.QOtherActions: "Table 9 — other actions taken against AI art",
		survey.QWhyNotAdopt:  "Table 10 — why artists would not adopt robots.txt",
		survey.QWhyBlock:     "Table 11 — why artists would enable a blocking mechanism",
		survey.QWhyDistrust:  "Table 12 — why artists distrust AI companies",
	}
	for _, q := range survey.Questions() {
		t := &Table{Headers: []string{"theme", "responses", "example"}}
		for _, e := range pop.ThemeCounts(q) {
			quote := survey.ExampleQuote(q, e.Key)
			if len(quote) > 60 {
				quote = quote[:57] + "..."
			}
			t.Rows = append(t.Rows, []string{e.Key, count(e.Count), quote})
		}
		sections = append(sections, Section{Heading: titles[q], Table: t})
	}
	return &Result{ID: "survey-codebook", Title: "Codebook theme frequencies", Sections: sections}, nil
}

func runNoAIMeta(ctx context.Context, env *Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := metatags.RunTop10kScan(env.Config.Seed)
	t := &Table{
		Headers: []string{"directive", "sites", "paper"},
		Rows: [][]string{
			{"noai", count(res.NoAI), "17"},
			{"noimageai", count(res.NoImageAI), "16"},
		},
	}
	return &Result{
		ID:    "noai-meta",
		Title: fmt.Sprintf("NoAI meta tags across %d top-ranked sites", res.Scanned),
		Sections: []Section{{
			Table: t,
			Notes: []string{"adoption of the DeviantArt NoAI tags remains negligible (§2.2)"},
		}},
	}, nil
}

func runActiveAssistants(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.ActiveMeasurement(ctx)
	if err != nil {
		return nil, err
	}
	builtin := &Table{Headers: []string{"built-in assistant", "verdict"}}
	var names []string
	for name := range res.BuiltinVerdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		builtin.Rows = append(builtin.Rows, []string{name, res.BuiltinVerdicts[name].String()})
	}
	summary := &Table{Headers: []string{"third-party behaviour", "crawlers", "paper"}}
	summary.Rows = append(summary.Rows,
		[]string{measure.Respected.String(), count(res.Summary[measure.Respected]), "1"},
		[]string{measure.BuggyRobotsFetch.String(), count(res.Summary[measure.BuggyRobotsFetch]), "1"},
		[]string{measure.IntermittentRespect.String(), count(res.Summary[measure.IntermittentRespect]), "1"},
		[]string{measure.NotFetched.String(), count(res.Summary[measure.NotFetched]), "20"},
	)
	return &Result{
		ID:    "active-assistants",
		Title: "Active measurement of AI assistant crawlers",
		Sections: []Section{
			{Heading: "Built-in assistants", Table: builtin},
			{
				Heading: fmt.Sprintf("Third-party GPT-app crawlers (%d apps → %d distinct crawlers; paper: 23)",
					res.AppsProbed, res.DistinctCrawlers),
				Table: summary,
			},
		},
	}, nil
}

func runActiveBlocking(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.BlockingSurvey(ctx, blocking.DefaultDetector)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Headers: []string{"category", "sites", "% of probed", "paper"},
		Rows: [][]string{
			{"probed", count(res.Probed), "100%", "10,000"},
			{"inherently block automation", count(res.InherentlyBlocked), pct(stats.Percent(res.InherentlyBlocked, res.Probed)), "1,487 (15%)"},
			{"actively block AI user agents", count(res.ActiveBlockers), pct(stats.Percent(res.ActiveBlockers, res.Probed)), "1,433 (14%)"},
			{"blockers also restricting via robots.txt", count(res.RobotsOverlap), pct(stats.Percent(res.RobotsOverlap, res.ActiveBlockers)), "35 (2%)"},
		},
	}
	return &Result{
		ID:       "active-blocking",
		Title:    "Active blocking of the Anthropic user agents across the top 10k",
		Sections: []Section{{Table: t, Notes: []string{"lower bound: nothing can be inferred for sites that block the probe tool itself"}}},
	}, nil
}

func runGreyBox(ctx context.Context, env *Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := blocking.RunGreyBox(env.Config.Seed, 590)
	if err != nil {
		return nil, err
	}
	t := &Table{Headers: []string{"blocked user agent token"}}
	for _, tok := range res.BlockedTokens {
		t.Rows = append(t.Rows, []string{tok})
	}
	return &Result{
		ID:    "cloudflare-greybox",
		Title: fmt.Sprintf("Block AI Bots rule inference: %d of %d probed user agents blocked (paper: 17)", len(res.BlockedTokens), res.Probed),
		Sections: []Section{{
			Table: t,
			Notes: []string{"matches Appendix C.3; Applebot, OAI-SearchBot, ICC Crawler and DuckAssistbot remain unblocked verified bots"},
		}},
	}, nil
}

func runFigure7(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.InferenceSurvey(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Headers: []string{"inference", "sites", "% of proxied", "paper"},
		Rows: [][]string{
			{"Block AI off", count(res.Off), pct(stats.Percent(res.Off, res.Total)), "87.01%"},
			{"Block AI on (block page)", count(res.OnBlock), pct(stats.Percent(res.OnBlock, res.Total)), "4.16%"},
			{"Block AI on (challenge page)", count(res.OnChallenge), pct(stats.Percent(res.OnChallenge, res.Total)), "1.64%"},
			{"inconclusive", count(res.Inconclusive), pct(stats.Percent(res.Inconclusive, res.Total)), "7.19%"},
		},
	}
	return &Result{
		ID:    "figure7",
		Title: fmt.Sprintf("Block AI Bots inference across %d Cloudflare-proxied sites", res.Total),
		Sections: []Section{{
			Table: t,
			Notes: []string{
				fmt.Sprintf("conclusive: %s (paper: 93%%); adoption among conclusive: %s (paper: 5.7%%)",
					pct(100*res.ConclusiveRate()), pct(100*res.OnRate())),
				fmt.Sprintf("robots.txt AI restrictions: %s of enabled sites vs %s of others (paper: 24%% vs 12%%)",
					pct(100*res.OnRobotsRate), pct(100*res.OffRobotsRate)),
			},
		}},
	}, nil
}

func runRobotsLint(ctx context.Context, env *Env) (*Result, error) {
	res, err := env.Longitudinal(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Headers: []string{"metric", "measured", "paper"},
		Rows: [][]string{
			{"sites with robots.txt mistakes", pct(100 * res.MistakeRate), "≈1%"},
			{"sites with blanket wildcard disallow", pct(100 * res.WildcardFullRate), "<2%"},
		},
	}
	return &Result{
		ID:       "robots-lint",
		Title:    "robots.txt authoring quality across the corpus",
		Sections: []Section{{Table: t}},
	}, nil
}

// runAblationParsers quantifies §8.1's parser-bug finding: the same
// corpus measured through non-compliant parsers yields materially
// different disallow rates.
func runAblationParsers(ctx context.Context, env *Env) (*Result, error) {
	c, err := env.corpusAt(ctx, math.Min(env.Config.Scale, 0.15))
	if err != nil {
		return nil, err
	}
	profiles := []robots.Profile{
		robots.ProfileGoogle, robots.ProfileStrictRFC,
		robots.ProfileLegacyBuggy, robots.ProfileClassic1994,
	}
	lastSnap := len(corpus.Snapshots) - 1
	bodies := make([]string, 0, len(c.Sites()))
	for _, site := range c.Sites() {
		bodies = append(bodies, c.RobotsBody(site, lastSnap))
	}
	// The bodies fold into far fewer templates under the cache's key, so
	// each is parsed once per profile. A profile whose blank lines break
	// groups keys bodies verbatim, and no two sites' bodies match.
	cache := robots.NewCache(0)
	t := &Table{Headers: []string{"parser profile", "agent restrictions found", "sites restricting ≥1 agent", "restrictions vs google"}}
	var baseline int
	for _, p := range profiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pairs, sites := 0, 0
		for _, body := range bodies {
			var rb *robots.Robots
			if p.BlankLineBreaksGroups {
				rb = robots.ParseStringProfile(body, p)
			} else {
				rb = cache.ParseProfile(body, p)
			}
			siteHit := false
			// Query every Table 1 agent: the buggy parsers' losses come
			// precisely from groups whose earlier User-agent lines they
			// dropped, which AgentTokens would still list.
			for _, a := range agents.Table1 {
				if lvl, explicit := rb.ExplicitRestriction(a.UserAgent); explicit && lvl.Restricted() {
					pairs++
					siteHit = true
				}
			}
			if siteHit {
				sites++
			}
		}
		if p.Name == "google" {
			baseline = pairs
		}
		rel := "—"
		if baseline > 0 {
			rel = pct(100 * float64(pairs) / float64(baseline))
		}
		t.Rows = append(t.Rows, []string{p.Name, count(pairs), count(sites), rel})
	}
	return &Result{
		ID:    "ablation-parsers",
		Title: "Measured AI-restriction rates under different parser semantics",
		Sections: []Section{{
			Table: t,
			Notes: []string{"the paper estimates ~10% parse error for the buggy prior-work parser (§3.1 fn. 3, §8.1)"},
		}},
	}, nil
}

func runAblationDetector(ctx context.Context, env *Env) (*Result, error) {
	full, err := env.BlockingSurvey(ctx, blocking.DefaultDetector)
	if err != nil {
		return nil, err
	}
	statusOnly, err := env.BlockingSurvey(ctx, blocking.StatusOnlyDetector)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Headers: []string{"detector", "active blockers found", "share of ground truth"},
		Rows: [][]string{
			{"status + length + errors (paper)", count(full.ActiveBlockers), pct(100)},
			{"status only", count(statusOnly.ActiveBlockers),
				pct(stats.Percent(statusOnly.ActiveBlockers, full.ActiveBlockers))},
		},
	}
	return &Result{
		ID:       "ablation-detector",
		Title:    "Detector-feature ablation for the §6.1 probe",
		Sections: []Section{{Table: t, Notes: []string{"soft-200 block pages are invisible to a status-only comparison"}}},
	}, nil
}

// runMaintenanceGap quantifies §8.1's "burden placed on each site
// administrator": a static blocklist written at the GPTBot surge loses
// coverage as new agents are announced, while a managed list does not.
func runMaintenanceGap(ctx context.Context, env *Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snaps := corpus.Snapshots
	var dates []time.Time
	for _, s := range snaps {
		dates = append(dates, s.Date)
	}
	freeze := snaps[corpus.GPTBotAnnouncedIndex].Date
	covs := manager.MaintenanceGap(manager.BlockAllAI, freeze, dates)
	t := &Table{Headers: []string{"snapshot", "agents announced", "static list covers", "managed list covers", "static gap"}}
	for i, c := range covs {
		t.Rows = append(t.Rows, []string{
			snaps[i].ID, count(c.Announced), count(c.StaticCovered),
			count(c.ManagedCovered), pct(100 * c.Gap()),
		})
	}
	newcomers := manager.AgentsAnnouncedBetween(freeze, dates[len(dates)-1])
	names := make([]string, 0, len(newcomers))
	for _, a := range newcomers {
		names = append(names, a.UserAgent)
	}
	return &Result{
		ID:    "maintenance-gap",
		Title: "Static vs managed robots.txt blocklists over the study window",
		Sections: []Section{{
			Table:  t,
			Series: []stats.Series{manager.GapSeries(covs)},
			Notes: []string{
				"agents a static Oct 2023 list misses by Oct 2024: " + strings.Join(names, ", "),
				"managed services (Dark Visitors, Yoast, AIOSEO — §2.2) exist precisely to close this gap",
			},
		}},
	}, nil
}
