// Package blocking implements active crawler blocking (§6) and the
// paper's two ways of detecting it from outside a site:
//
//   - the user-agent differential probe of §6.1 (visit with a browser
//     user agent, revisit with AI crawler user agents, compare status
//     codes, exceptions and content lengths per [53, 88]) and the §6.2
//     adoption survey over a top-10k site population;
//   - §6.3's Cloudflare-like reverse proxy — a Verified Bots registry,
//     the "Definitely Automated" managed ruleset (App. C.2) and the
//     one-click "Block AI Scrapers and Crawlers" feature (App. C.3) —
//     with the grey-box replay that infers its rule list and the
//     Figure 7 flow that classifies third-party sites as Block AI on,
//     off or inconclusive from probe responses alone.
//
// Substitution note: the paper's probe is a Selenium-driven headless
// Chromium, and 15% of sites block the *tool* via fingerprinting
// regardless of user agent. Browser fingerprinting has no observable
// equivalent at the HTTP layer of this simulation, so the prober marks
// itself with a fingerprint header and "inherently blocking" sites key on
// that marker; real crawlers (internal/crawler) do not carry it. The
// detector's logic — and its blindness — are unchanged: it cannot infer
// anything about sites that block the tool itself, making the measured
// adoption rate a lower bound exactly as in the paper.
//
// Both surveys host their population on one virtual-host farm and probe
// every site once on par.Do: each shard probes on its own clients and
// writes only its own sites' result slots, workers <= 1 probes them all
// on the calling goroutine, and the first failing site in population
// order decides the error. Every probe reads a domain's "/" or
// "/robots.txt" through netsim.Get, which takes the domain and the path
// as they are, so a page cut short is a failed fetch. A §6.1 probe
// records what it saw and a pure function classifies that record, so
// one pass over the population yields the tallies of both detectors —
// the paper's full feature set and the status-only ablation.
package blocking

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/robots"
	"repro/internal/stats"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

// fingerprintHeader is the request header the probe tool carries; it
// stands in for the browser fingerprint surface real anti-bot services
// inspect.
const fingerprintHeader = "X-Client-Fingerprint"

// fingerprintHeadless is the probe tool's fingerprint value.
const fingerprintHeadless = "headless-chromium-selenium"

// BlockStyle is how a site responds to a blocked request.
type BlockStyle int

const (
	// StyleForbidden returns 403 with a short block page.
	StyleForbidden BlockStyle = iota
	// styleChallenge returns a CAPTCHA-like challenge page with 403.
	styleChallenge
	// styleSoft200 returns HTTP 200 with a stub page instead of content —
	// detectable only by comparing content lengths (§6.1's length
	// feature; the ablation bench quantifies what status-only misses).
	styleSoft200
)

// UABlocker blocks requests whose User-Agent contains any pattern.
type UABlocker struct {
	Patterns []string
	Style    BlockStyle
}

// Check implements webserver.Blocker.
func (b *UABlocker) Check(r *http.Request) *webserver.BlockDecision {
	if _, ok := useragent.MatchesAny(r.UserAgent(), b.Patterns); !ok {
		return nil
	}
	switch b.Style {
	case styleChallenge:
		return &webserver.BlockDecision{
			Status: http.StatusForbidden, Challenge: true,
			Body: "<html><body><h1>Attention required</h1><p>Complete the CAPTCHA to continue.</p></body></html>",
		}
	case styleSoft200:
		return &webserver.BlockDecision{
			Status: http.StatusOK,
			Body:   "<html><body>unavailable</body></html>",
		}
	default:
		return &webserver.BlockDecision{
			Status: http.StatusForbidden,
			Body:   "<html><body><h1>403 Forbidden</h1></body></html>",
		}
	}
}

// automationBlocker blocks any client whose fingerprint marks it as an
// automation tool, regardless of user agent (the sites §6.1 must exclude).
type automationBlocker struct{}

// Check implements webserver.Blocker.
func (automationBlocker) Check(r *http.Request) *webserver.BlockDecision {
	if r.Header.Get(fingerprintHeader) != "" {
		return &webserver.BlockDecision{
			Status: http.StatusForbidden,
			Body:   "<html><body>automated access denied</body></html>",
		}
	}
	return nil
}

// blockerChain composes blockers; the first non-nil decision wins.
type blockerChain []webserver.Blocker

// Check implements webserver.Blocker.
func (c blockerChain) Check(r *http.Request) *webserver.BlockDecision {
	for _, b := range c {
		if d := b.Check(r); d != nil {
			return d
		}
	}
	return nil
}

// DetectorOptions selects which §6.1 features the probe compares.
type DetectorOptions struct {
	// StatusOnly compares status codes alone. Otherwise a content length
	// lengthRatio away from the control's, or a transport error on the AI
	// crawl, also counts as blocking.
	StatusOnly bool
}

// lengthRatio is the relative content-length difference that counts as
// significant.
const lengthRatio = 0.5

// DefaultDetector is the paper's full feature set.
var DefaultDetector = DetectorOptions{}

// StatusOnlyDetector is the ablation: status codes only.
var StatusOnlyDetector = DetectorOptions{StatusOnly: true}

// siteVerdict is the §6.1 classification of one site.
type siteVerdict int

const (
	// noInference: the control crawl failed; the site blocks the tool
	// itself and nothing can be said about AI-specific blocking.
	noInference siteVerdict = iota
	// blocksAI: at least one AI user agent got a materially different
	// response than the control.
	blocksAI
	// noBlocking: control and AI responses match.
	noBlocking
)

// String names the verdict.
func (v siteVerdict) String() string {
	switch v {
	case noInference:
		return "inherently blocks automation"
	case blocksAI:
		return "actively blocks AI user agents"
	case noBlocking:
		return "no user-agent blocking detected"
	default:
		return "unknown"
	}
}

// probeAgents are the two AI user agents the §6 probes use: the most
// frequently restricted agents without published IP ranges, so sites must
// block them by user agent.
var probeAgents = [...]string{"ClaudeBot", "anthropic-ai"}

// controlHdr and agentHdrs are the request headers every probe shares:
// the control crawl's browser user agent, then one per probe agent, all
// carrying the automation fingerprint (it is the same tool).
var (
	controlHdr = probeHeader(useragent.BrowserChromeUA)
	agentHdrs  = func() (hs [len(probeAgents)]http.Header) {
		for i, agent := range probeAgents {
			hs[i] = probeHeader(useragent.FullUA(agent, "1.0"))
		}
		return hs
	}()
)

func probeHeader(ua string) http.Header {
	return http.Header{"User-Agent": {ua}, fingerprintHeader: {fingerprintHeadless}}
}

// probeRecord is what one site's differential probe saw: the control
// crawl's status and body length, then each probe agent's.
type probeRecord struct {
	ControlStatus int
	ControlLen    int
	Agents        [len(probeAgents)]agentFetch
}

// agentFetch is one probe agent's crawl. Failed marks a transport error
// (a body cut short included); Status and Len are then zero.
type agentFetch struct {
	Status int
	Len    int
	Failed bool
}

// probe runs the §6.1 procedure against the front page of domain from
// client: control crawl with a Chrome user agent, then, if the control
// got a 200, one crawl per AI probe agent. A control crawl that fails, a
// body cut short included, is an error: nothing can be compared against
// it.
func probe(ctx context.Context, client *http.Client, domain string) (probeRecord, error) {
	var rec probeRecord
	ctrlStatus, ctrlBody, err := netsim.Get(ctx, client, domain, "/", controlHdr)
	if err != nil {
		return rec, fmt.Errorf("blocking: control crawl: %w", err)
	}
	rec.ControlStatus, rec.ControlLen = ctrlStatus, len(ctrlBody)
	if ctrlStatus != http.StatusOK {
		return rec, nil
	}
	for i := range probeAgents {
		status, body, err := netsim.Get(ctx, client, domain, "/", agentHdrs[i])
		if err != nil {
			rec.Agents[i].Failed = true
			continue
		}
		rec.Agents[i].Status, rec.Agents[i].Len = status, len(body)
	}
	return rec, nil
}

// verdict classifies a probe record under opts: a control crawl without
// a 200 says nothing; otherwise an AI crawl with a different status
// blocks, and under the full detector so does a transport error or a
// content length lengthRatio away from the control's.
func (r *probeRecord) verdict(opts DetectorOptions) siteVerdict {
	if r.ControlStatus != http.StatusOK {
		return noInference
	}
	for _, a := range r.Agents {
		switch {
		case a.Failed:
			if !opts.StatusOnly {
				return blocksAI
			}
		case a.Status != r.ControlStatus:
			return blocksAI
		case !opts.StatusOnly && significantDelta(r.ControlLen, a.Len):
			return blocksAI
		}
	}
	return noBlocking
}

func significantDelta(control, ai int) bool {
	if control == 0 {
		return ai != 0
	}
	diff := control - ai
	if diff < 0 {
		diff = -diff
	}
	return float64(diff)/float64(control) >= lengthRatio
}

// Population fractions from §6.2, expressed over the top 10k.
const (
	// paperInherentRate: 1,487 of 10,000 sites block the tool itself.
	paperInherentRate = 0.1487
	// PaperUABlockRate: 1,433 of 10,000 block the Anthropic user agents.
	PaperUABlockRate = 0.1433
	// paperRobotsOverlapRate: 35 of the 1,433 also restrict those agents
	// in robots.txt (§6.2: "only 2%").
	paperRobotsOverlapRate = 35.0 / 1433.0
	// soft200Share is the share of UA blockers that return 200 with a stub
	// page, detectable only via content length.
	soft200Share = 0.15
)

// siteSpec is the generated ground truth for one survey site.
type siteSpec struct {
	Domain        string
	InherentBlock bool
	UABlock       bool
	Style         BlockStyle
	// RobotsRestrictsProbeAgents mirrors the §6.2 overlap measurement.
	RobotsRestrictsProbeAgents bool
	// PageBytes sizes the front page (startSite).
	PageBytes int
}

// generatePopulation builds n survey sites with the paper's §6.2 mix.
// Counts are exact (category sizes are rounded, then assigned by shuffled
// position) so the survey reproduces the paper's proportions at any scale.
func generatePopulation(n int, seed int64) []siteSpec {
	rn := stats.NewRand(seed).Fork("blocking-population")
	nInherent := int(float64(n)*paperInherentRate + 0.5)
	nUA := int(float64(n)*PaperUABlockRate + 0.5)
	nOverlap := int(float64(nUA)*paperRobotsOverlapRate + 0.5)

	sizeRand := stats.NewRand(seed).Fork("body-sizes")
	specs := make([]siteSpec, n)
	perm := rn.Perm(n)
	for i := range specs {
		specs[i] = siteSpec{Domain: fmt.Sprintf("top%05d.example", i+1),
			PageBytes: minPageBytes + sizeRand.Intn(maxPageBytes-minPageBytes)}
	}
	// First nInherent shuffled positions block inherently; next nUA block
	// by user agent.
	for _, idx := range perm[:nInherent] {
		specs[idx].InherentBlock = true
	}
	uaIdx := perm[nInherent : nInherent+nUA]
	for j, idx := range uaIdx {
		specs[idx].UABlock = true
		switch {
		case rn.Bool(soft200Share):
			specs[idx].Style = styleSoft200
		case rn.Bool(0.3):
			specs[idx].Style = styleChallenge
		default:
			specs[idx].Style = StyleForbidden
		}
		if j < nOverlap {
			specs[idx].RobotsRestrictsProbeAgents = true
		}
	}
	return specs
}

// A survey page's size is drawn from [minPageBytes, maxPageBytes).
const minPageBytes, maxPageBytes = 1500, 4500

// paragraph fills a survey page; paragraphRun is enough of them for the
// largest page a survey draws, shared read-only by every page.
const paragraph = "<p>content paragraph</p>\n"

var paragraphRun = strings.Repeat(paragraph, maxPageBytes/len(paragraph)+1)

// startSite hosts one survey site on the farm according to its spec. Its
// page holds spec.PageBytes/len(paragraph)+1 paragraphs.
func startSite(farm *webserver.Farm, spec siteSpec) (*webserver.Site, error) {
	n := (spec.PageBytes/len(paragraph) + 1) * len(paragraph)
	paragraphs := paragraphRun
	if n <= len(paragraphs) {
		paragraphs = paragraphs[:n]
	} else {
		paragraphs = strings.Repeat(paragraph, n/len(paragraph))
	}
	body := "<html><body><h1>" + spec.Domain + "</h1>" + paragraphs + "</body></html>"
	var robotsTxt *string
	if spec.RobotsRestrictsProbeAgents {
		txt := "User-agent: ClaudeBot\nUser-agent: anthropic-ai\nDisallow: /\n"
		robotsTxt = &txt
	}
	var chain blockerChain
	if spec.InherentBlock {
		chain = append(chain, automationBlocker{})
	}
	if spec.UABlock {
		chain = append(chain, &UABlocker{Patterns: probeAgents[:], Style: spec.Style})
	}
	cfg := webserver.Config{
		Domain:    spec.Domain,
		IP:        surveyFarmIP,
		RobotsTxt: robotsTxt,
		Pages:     map[string]webserver.Page{"/": {Body: body}},
	}
	if len(chain) > 0 {
		cfg.Blocker = chain
	}
	return farm.StartSite(cfg)
}

// surveyFarmIP hosts every survey site: the whole population advertises
// the farm's own address, so hosting it binds one handler, not one per
// site. Probes address a site by its domain.
const surveyFarmIP = "10.9.0.1"

// SurveyResult aggregates the §6.2 measurement under one detector.
type SurveyResult struct {
	Probed            int
	InherentlyBlocked int
	ActiveBlockers    int
	NoBlocking        int
	// RobotsOverlap counts detected blockers that also restrict the probe
	// agents in robots.txt (the paper's 35-of-1,433 finding).
	RobotsOverlap int
}

// count adds one probed site with verdict v; robots reports whether its
// robots.txt restricts a probe agent.
func (r *SurveyResult) count(v siteVerdict, robots bool) {
	r.Probed++
	switch v {
	case noInference:
		r.InherentlyBlocked++
	case blocksAI:
		r.ActiveBlockers++
		if robots {
			r.RobotsOverlap++
		}
	case noBlocking:
		r.NoBlocking++
	}
}

// Tallies are one survey's results under both detectors.
type Tallies struct {
	// Full is the paper's detector, StatusOnly the ablation.
	Full, StatusOnly SurveyResult
}

// Under returns the tally of the detector opts selects.
func (t *Tallies) Under(opts DetectorOptions) *SurveyResult {
	if opts.StatusOnly {
		return &t.StatusOnly
	}
	return &t.Full
}

// RunSurvey generates a population of n sites, hosts them, probes each
// once and classifies the probe under both §6.1 detectors, then checks
// robots.txt overlap for the sites the full detector flags. Every
// status-only blocker is also a full-detector blocker, so both tallies'
// RobotsOverlap come from those fetches. workers bounds the shards in
// flight (clamped to GOMAXPROCS), and cancellation is honored between
// shards. A failing site fails the survey under both detectors.
func RunSurvey(ctx context.Context, n int, seed int64, workers int) (*Tallies, error) {
	sites, err := hostAndProbe(ctx, workers, topAddrs, generatePopulation(n, seed), startSite, probeSite)
	if err != nil {
		return nil, err
	}
	res := &Tallies{}
	for _, v := range sites {
		res.Full.count(v.full, v.robots)
		res.StatusOnly.count(v.statusOnly, v.robots)
	}
	return res, nil
}

// verdicts is one survey site's probe, classified under each detector.
type verdicts struct {
	full, statusOnly siteVerdict
	robots           bool // a full-detector blocker's robots.txt restricts a probe agent
}

// probeSite probes one survey site and classifies the probe; a
// full-detector blocker's robots.txt is fetched too.
func probeSite(ctx context.Context, client, robotsClient *http.Client, spec siteSpec) (v verdicts, err error) {
	rec, err := probe(ctx, client, spec.Domain)
	if err != nil {
		return v, err
	}
	v.full, v.statusOnly = rec.verdict(DefaultDetector), rec.verdict(StatusOnlyDetector)
	if v.full == blocksAI {
		v.robots, err = robotsSays(ctx, robotsClient, spec.Domain, restrictsProbeAgents)
	}
	return v, err
}

// surveyAddrs are a survey's addresses: the farm that hosts its whole
// population, and its probe and robots.txt clients' sources.
type surveyAddrs struct{ farm, probe, robots string }

var topAddrs = surveyAddrs{surveyFarmIP, "198.51.100.200", "198.51.100.201"}

// hostAndProbe is both surveys' pass. It hosts one site per spec on a
// fresh network's farm at at.farm, checking ctx every 256 sites, then
// probes every site once on par.Do, each shard from its own clients. It
// returns the results in population order, or the error of the first
// failing site in that order.
func hostAndProbe[S, R any](ctx context.Context, workers int, at surveyAddrs, specs []S,
	start func(*webserver.Farm, S) (*webserver.Site, error),
	probeSpec func(ctx context.Context, client, robotsClient *http.Client, spec S) (R, error)) ([]R, error) {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, at.farm)
	if err != nil {
		return nil, err
	}
	defer farm.Close()
	for i, spec := range specs {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if _, err := start(farm, spec); err != nil {
			return nil, err
		}
	}
	results := make([]R, len(specs))
	errs := make([]error, len(specs))
	err = par.Do(ctx, workers, len(specs), func(lo, hi int) {
		client, robotsClient := nw.HTTPClient(at.probe), nw.HTTPClient(at.robots)
		for i := lo; i < hi; i++ {
			results[i], errs[i] = probeSpec(ctx, client, robotsClient, specs[i])
		}
	})
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// robotsHdr is the neutral user agent of both surveys' robots.txt fetches.
var robotsHdr = http.Header{"User-Agent": {"robots-survey/1.0"}}

// robotsSays fetches domain's robots.txt with robotsHdr and reports what
// test says of its body; a site that serves none says false.
func robotsSays(ctx context.Context, client *http.Client, domain string, test func(string) bool) (bool, error) {
	status, body, err := netsim.Get(ctx, client, domain, "/robots.txt", robotsHdr)
	if err != nil {
		return false, fmt.Errorf("blocking: robots.txt check: %w", err)
	}
	return status == http.StatusOK && test(body), nil
}

// restrictsProbeAgents reports whether a robots.txt explicitly restricts
// either probe agent. It parses through the shared content-keyed cache:
// survey populations reuse a handful of robots.txt templates.
func restrictsProbeAgents(robotsTxt string) bool {
	rb := robots.ParseCached(robotsTxt)
	for _, agent := range probeAgents {
		if lvl, explicit := rb.ExplicitRestriction(agent); explicit && lvl.Restricted() {
			return true
		}
	}
	return false
}
