package blocking

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/agents"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

// Page body markers, used the way the paper uses Cloudflare's block and
// challenge page HTML to classify responses.
const (
	blockPageMarker     = "cf-block-page"
	challengePageMarker = "cf-challenge-page"
)

// cfFarmIP hosts the proxied populations' shared virtual-host farm;
// every proxied site advertises it, so the farm binds one handler.
const cfFarmIP = "11.9.0.1"

// settings is a proxied site's bot-management configuration.
type settings struct {
	// BlockAIBots is the one-click AI blocking feature.
	BlockAIBots bool
	// ChallengeAI serves challenge pages instead of block pages for AI
	// matches (the "managed challenge" flavor some customers configure;
	// drives Figure 7's 4.16% vs 1.64% split).
	ChallengeAI bool
	// DefinitelyAutomated enables the managed automation ruleset.
	DefinitelyAutomated bool
}

// verifiedBotIPs maps verified bot tokens to the IP prefix the proxy
// validates them against (simulated published ranges).
var verifiedBotIPs = func() map[string]string {
	m := make(map[string]string)
	for name := range agents.CloudflareVerifiedAIBots {
		if a, ok := agents.ByToken(name); ok && a.IPPrefix != "" {
			m[strings.ToLower(name)] = a.IPPrefix
			continue
		}
		// Verified bots outside Table 1 (ICC Crawler, DuckAssistbot).
		switch name {
		case "ICC Crawler":
			m[strings.ToLower(name)] = "52.0.1"
		case "DuckAssistbot":
			m[strings.ToLower(name)] = "53.0.1"
		}
	}
	return m
}()

// proxy screens requests for one site. It implements webserver.Blocker so
// it can front any instrumented site.
type proxy struct {
	mu       sync.Mutex
	settings settings
}

// newProxy returns a proxy with the given settings.
func newProxy(s settings) *proxy { return &proxy{settings: s} }

// configure atomically replaces the settings (the dashboard toggle).
func (p *proxy) configure(s settings) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settings = s
}

// current returns the current configuration.
func (p *proxy) current() settings {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.settings
}

// Check implements webserver.Blocker with the §6.3 evaluation order:
// Block AI Bots (user-agent based), then verified-bot validation, then
// Definitely Automated.
func (p *proxy) Check(r *http.Request) *webserver.BlockDecision {
	s := p.current()
	ua := r.UserAgent()

	if s.BlockAIBots {
		if _, hit := useragent.MatchesAny(ua, agents.CloudflareBlockAIBots); hit {
			if s.ChallengeAI {
				return challengePage()
			}
			return blockPage()
		}
	}

	verified, fake := p.verifiedStatus(r)
	if verified {
		// Verified bots (correct source range) bypass Definitely Automated.
		return nil
	}
	if s.DefinitelyAutomated {
		if fake {
			// A request claiming a verified bot from the wrong range is
			// definitely automated (App. C.2 note).
			return challengePage()
		}
		if _, hit := useragent.MatchesAny(ua, agents.CloudflareDefinitelyAutomated); hit {
			return challengePage()
		}
	}
	return nil
}

// verifiedStatus reports whether the request is a validated verified bot,
// or a fake one (verified UA from the wrong source range).
func (p *proxy) verifiedStatus(r *http.Request) (verified, fake bool) {
	ua := strings.ToLower(r.UserAgent())
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	for name, prefix := range verifiedBotIPs {
		if !strings.Contains(ua, name) {
			continue
		}
		if strings.HasPrefix(host, prefix+".") {
			return true, false
		}
		return false, true
	}
	return false, false
}

func blockPage() *webserver.BlockDecision {
	return &webserver.BlockDecision{
		Status: http.StatusForbidden,
		Body: "<html><body class=\"" + blockPageMarker + "\"><h1>Sorry, you have been blocked</h1>" +
			"<p>This website is using a security service to protect itself.</p></body></html>",
	}
}

func challengePage() *webserver.BlockDecision {
	return &webserver.BlockDecision{
		Status: http.StatusForbidden, Challenge: true,
		Body: "<html><body class=\"" + challengePageMarker + "\"><h1>Checking your browser</h1>" +
			"<p>Complete the challenge to continue.</p></body></html>",
	}
}

// responseKind classifies a probe response the way the paper reads
// Cloudflare pages.
type responseKind int

const (
	kindOK responseKind = iota
	kindBlock
	kindChallenge
	kindOther
)

// fetchKind reads domain's front page with hdr and classifies the answer.
func fetchKind(ctx context.Context, client *http.Client, domain string, hdr http.Header) (responseKind, error) {
	status, body, err := netsim.Get(ctx, client, domain, "/", hdr)
	if err != nil {
		return kindOther, err
	}
	return classifyResponse(status, body), nil
}

func classifyResponse(status int, body string) responseKind {
	switch {
	case strings.Contains(body, challengePageMarker):
		return kindChallenge
	case strings.Contains(body, blockPageMarker):
		return kindBlock
	case status == http.StatusOK:
		return kindOK
	default:
		return kindOther
	}
}

// GreyBoxResult is the §6.3 rule-list inference outcome.
type GreyBoxResult struct {
	// Probed is the number of user agents replayed.
	Probed int
	// BlockedTokens are the distinct product tokens blocked only when the
	// feature is on, sorted (paper: 17).
	BlockedTokens []string
}

// RunGreyBox stands up a site behind the proxy, replays every probe user
// agent with Block AI Bots off and then on, and infers the blocked list
// from the differential — the paper's methodology for Appendix C.3.
func RunGreyBox(seed int64, extraAgents int) (*GreyBoxResult, error) {
	if extraAgents <= 0 {
		extraAgents = 590
	}
	nw := netsim.New()
	px := newProxy(settings{})
	farm, err := webserver.NewFarm(nw, cfFarmIP)
	if err != nil {
		return nil, err
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.Config{
		Domain: "greybox.test", IP: "203.0.113.80",
		Pages:   map[string]webserver.Page{"/": {Body: "<html><body>owner content</body></html>"}},
		Blocker: px,
	})
	if err != nil {
		return nil, err
	}
	client := nw.HTTPClient("198.51.100.230")

	var probes []string
	for _, a := range agents.Table1 {
		probes = append(probes, a.FullUserAgent())
	}
	probes = append(probes, agents.GenericCrawlerUserAgents(extraAgents)...)

	// Grey-box replays run without a caller context; each fetch carries
	// its own bound.
	fetch := func(ua string) (responseKind, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return fetchKind(ctx, client, site.Domain(), http.Header{"User-Agent": {ua}})
	}

	res := &GreyBoxResult{Probed: len(probes)}
	offOK := make(map[string]bool, len(probes))
	px.configure(settings{BlockAIBots: false})
	for _, ua := range probes {
		kind, err := fetch(ua)
		if err != nil {
			return nil, err
		}
		offOK[ua] = kind == kindOK
	}
	px.configure(settings{BlockAIBots: true})
	blocked := make(map[string]bool)
	for _, ua := range probes {
		kind, err := fetch(ua)
		if err != nil {
			return nil, err
		}
		if offOK[ua] && kind != kindOK {
			blocked[useragent.ProductToken(ua)] = true
		}
	}
	for tok := range blocked {
		res.BlockedTokens = append(res.BlockedTokens, tok)
	}
	sort.Strings(res.BlockedTokens)
	return res, nil
}

// inference is the Figure 7 classification of one proxied site.
type inference int

const (
	// inferredOff: the AI probe agents got content → Block AI off.
	inferredOff inference = iota
	// inferredOnBlock: AI agents got block pages, automation probes got
	// content → Block AI on.
	inferredOnBlock
	// inferredOnChallenge: AI agents got challenge pages, automation
	// probes got content → Block AI on (challenge flavor).
	inferredOnChallenge
	// inconclusive: the automation probes were also blocked — the AI
	// block could come from either ruleset (Figure 7's 7.19%).
	inconclusive
)

// String names the inference.
func (i inference) String() string {
	switch i {
	case inferredOff:
		return "Block AI off"
	case inferredOnBlock:
		return "Block AI on (block)"
	case inferredOnChallenge:
		return "Block AI on (challenge)"
	case inconclusive:
		return "inconclusive"
	default:
		return "unknown"
	}
}

// aiProbeHdrs and automationProbeHdrs are Figure 7's probe sets, one
// shared request header per agent: the §6 probe agents, without §6.1's
// fingerprint, and two unpopular automation libraries from the Definitely
// Automated list.
var (
	aiProbeHdrs         = uaHeaders(probeAgents[:]...)
	automationProbeHdrs = uaHeaders("HeadlessChrome", "libwww-perl")
)

// uaHeaders returns one request header per product token, carrying the
// token's full user agent.
func uaHeaders(tokens ...string) []http.Header {
	hs := make([]http.Header, len(tokens))
	for i, tok := range tokens {
		hs[i] = http.Header{"User-Agent": {useragent.FullUA(tok, "1.0")}}
	}
	return hs
}

// inferBlockAI runs the Figure 7 flow against the front page of domain.
// A probe that fails, a body cut short included, is an error rather than
// a page to classify.
func inferBlockAI(ctx context.Context, client *http.Client, domain string) (inference, error) {
	aiKind := kindOK
	for _, hdr := range aiProbeHdrs {
		k, err := fetchKind(ctx, client, domain, hdr)
		if err != nil {
			return inconclusive, err
		}
		if k != kindOK {
			aiKind = k
		}
	}
	if aiKind == kindOK {
		return inferredOff, nil
	}
	for _, hdr := range automationProbeHdrs {
		k, err := fetchKind(ctx, client, domain, hdr)
		if err != nil {
			return inconclusive, err
		}
		if k != kindOK {
			// The Definitely Automated ruleset (or a custom WAF) is in
			// play; the AI block cannot be attributed.
			return inconclusive, nil
		}
	}
	if aiKind == kindChallenge {
		return inferredOnChallenge, nil
	}
	return inferredOnBlock, nil
}

// Population fractions for the §6.3 survey, calibrated to the paper's
// text (107 of 1,875 conclusively-determined sites enable Block AI) with
// Figure 7's block/challenge ratio.
const (
	// onBlockRate and onChallengeRate split the enabled population; 2,018
	// of the top 10k sites (20%) proxy through Cloudflare.
	onBlockRate     = 0.0382 // ~77 of 2,018
	onChallengeRate = 0.0149 // ~30 of 2,018
	// inconclusiveRate is Figure 7's 7.19%.
	inconclusiveRate = 0.0719
	// paperOnRobotsRate / paperOffRobotsRate: §6.3's correlation — sites
	// enabling Block AI also disallow AI crawlers in robots.txt at 24%
	// vs 12% for the rest.
	paperOnRobotsRate  = 0.24
	paperOffRobotsRate = 0.12
)

// cfSiteSpec is the generated ground truth for one proxied site.
type cfSiteSpec struct {
	Domain            string
	Settings          settings
	RobotsDisallowsAI bool
}

// generateCFPopulation builds n Cloudflare-proxied sites matching the
// §6.3 distribution with exact category counts.
func generateCFPopulation(n int, seed int64) []cfSiteSpec {
	rn := stats.NewRand(seed).Fork("cf-population")
	nOnBlock := int(float64(n)*onBlockRate + 0.5)
	nOnChallenge := int(float64(n)*onChallengeRate + 0.5)
	nInconclusive := int(float64(n)*inconclusiveRate + 0.5)

	specs := make([]cfSiteSpec, n)
	for i := range specs {
		specs[i] = cfSiteSpec{Domain: fmt.Sprintf("cf%05d.example", i+1)}
	}
	perm := rn.Perm(n)
	idx := 0
	take := func(k int) []int {
		out := perm[idx : idx+k]
		idx += k
		return out
	}
	for _, i := range take(nOnBlock) {
		specs[i].Settings = settings{BlockAIBots: true}
	}
	for _, i := range take(nOnChallenge) {
		specs[i].Settings = settings{BlockAIBots: true, ChallengeAI: true}
	}
	for _, i := range take(nInconclusive) {
		// Definitely Automated on; Block AI state unobservable (half on).
		specs[i].Settings = settings{DefinitelyAutomated: true, BlockAIBots: i%2 == 0}
	}
	// Robots.txt correlation.
	for i := range specs {
		rate := paperOffRobotsRate
		if specs[i].Settings.BlockAIBots && !specs[i].Settings.DefinitelyAutomated {
			rate = paperOnRobotsRate
		}
		specs[i].RobotsDisallowsAI = rn.Bool(rate)
	}
	return specs
}

// CFSurveyResult aggregates the Figure 7 inference over a population.
type CFSurveyResult struct {
	Total        int
	Off          int
	OnBlock      int
	OnChallenge  int
	Inconclusive int
	// OnRobotsRate and OffRobotsRate are the fractions of (conclusive)
	// sites whose robots.txt disallows AI crawlers, split by inferred
	// setting (paper: 24% vs 12%).
	OnRobotsRate  float64
	OffRobotsRate float64
}

// ConclusiveRate returns the fraction of sites classified conclusively.
func (r *CFSurveyResult) ConclusiveRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Total-r.Inconclusive) / float64(r.Total)
}

// OnRate returns the Block-AI adoption rate among conclusive sites
// (paper: 107/1,875 = 5.7%).
func (r *CFSurveyResult) OnRate() float64 {
	conclusive := r.Total - r.Inconclusive
	if conclusive == 0 {
		return 0
	}
	return float64(r.OnBlock+r.OnChallenge) / float64(conclusive)
}

// RunInferenceSurvey hosts n proxied sites and classifies each with the
// Figure 7 flow, then measures the robots.txt correlation. workers bounds
// the shards in flight (clamped to GOMAXPROCS), and cancellation is
// honored between shards.
func RunInferenceSurvey(ctx context.Context, n int, seed int64, workers int) (*CFSurveyResult, error) {
	sites, err := hostAndProbe(ctx, workers, cfAddrs, generateCFPopulation(n, seed), startCFSite, probeCFSite)
	if err != nil {
		return nil, err
	}
	var count, withRobots [inconclusive + 1]int
	for _, r := range sites {
		count[r.inf]++
		if r.robots {
			withRobots[r.inf]++
		}
	}
	res := &CFSurveyResult{Total: n, Off: count[inferredOff], OnBlock: count[inferredOnBlock],
		OnChallenge: count[inferredOnChallenge], Inconclusive: count[inconclusive]}
	if on := res.OnBlock + res.OnChallenge; on > 0 {
		res.OnRobotsRate = float64(withRobots[inferredOnBlock]+withRobots[inferredOnChallenge]) / float64(on)
	}
	if res.Off > 0 {
		res.OffRobotsRate = float64(withRobots[inferredOff]) / float64(res.Off)
	}
	return res, nil
}

// cfAddrs are the Figure 7 survey's addresses. One virtual-host farm
// stands in for the whole proxied population — fittingly, real
// Cloudflare-fronted sites share edge listeners too.
var cfAddrs = surveyAddrs{cfFarmIP, "198.51.100.240", "198.51.100.241"}

// startCFSite hosts one proxied site on the farm behind its own proxy.
func startCFSite(farm *webserver.Farm, spec cfSiteSpec) (*webserver.Site, error) {
	robotsTxt := "User-agent: *\nDisallow: /admin/\n"
	if spec.RobotsDisallowsAI {
		robotsTxt = "User-agent: GPTBot\nUser-agent: anthropic-ai\nUser-agent: ClaudeBot\nDisallow: /\n"
	}
	return farm.StartSite(webserver.Config{
		Domain:    spec.Domain,
		IP:        cfFarmIP,
		RobotsTxt: &robotsTxt,
		Pages:     map[string]webserver.Page{"/": {Body: "<html><body>site content for " + spec.Domain + "</body></html>"}},
		Blocker:   newProxy(spec.Settings),
	})
}

// cfVerdict is one proxied site's inference; robots reports whether a
// conclusive site's robots.txt restricts an AI agent.
type cfVerdict struct {
	inf    inference
	robots bool
}

// probeCFSite infers one proxied site's setting and, if the inference is
// conclusive, reads its robots.txt.
func probeCFSite(ctx context.Context, client, robotsClient *http.Client, spec cfSiteSpec) (r cfVerdict, err error) {
	r.inf, err = inferBlockAI(ctx, client, spec.Domain)
	if err == nil && r.inf != inconclusive {
		r.robots, err = robotsSays(ctx, robotsClient, spec.Domain, agents.RestrictsAnyAI)
	}
	return r, err
}
