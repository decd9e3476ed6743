// Package blocking implements active crawler blocking (§6) and the
// paper's methodology for detecting it: the user-agent differential probe
// of §6.1 (visit with a browser user agent, revisit with AI crawler user
// agents, compare status codes, exceptions and content lengths per
// [53, 88]) and the §6.2 adoption survey over a top-10k site population.
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
package blocking

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

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
	// UseLength enables the content-length comparison (default true via
	// DefaultDetector). LengthRatio is the relative difference that counts
	// as significant (0 means 0.5).
	UseLength   bool
	LengthRatio float64
	// UseErrors treats transport errors on the AI crawl as blocking.
	UseErrors bool
}

// DefaultDetector is the paper's full feature set.
var DefaultDetector = DetectorOptions{UseLength: true, LengthRatio: 0.5, UseErrors: true}

// StatusOnlyDetector is the ablation: status codes only.
var StatusOnlyDetector = DetectorOptions{}

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
var probeAgents = []string{"ClaudeBot", "anthropic-ai"}

// prober runs user-agent differential probes.
type prober struct {
	client  *http.Client
	options DetectorOptions
}

// newProber builds a prober that dials from sourceIP.
func newProber(nw *netsim.Network, sourceIP string, opts DetectorOptions) *prober {
	if opts.UseLength && opts.LengthRatio == 0 {
		opts.LengthRatio = 0.5
	}
	return &prober{client: nw.HTTPClient(sourceIP), options: opts}
}

// probeOutcome is one site's differential probe result.
type probeOutcome struct {
	URL           string
	Verdict       siteVerdict
	ControlStatus int
	// AIStatus maps each probe agent to its response status (0 = error).
	AIStatus map[string]int
}

// probe runs the §6.1 procedure against one site: control crawl with a
// Chrome user agent, then one crawl per AI probe agent, all carrying the
// automation fingerprint (it is the same tool).
func (p *prober) probe(ctx context.Context, siteURL string) (*probeOutcome, error) {
	out := &probeOutcome{URL: siteURL, AIStatus: make(map[string]int)}
	ctrlStatus, ctrlBody, err := p.fetch(ctx, siteURL, useragent.BrowserChromeUA)
	if err != nil {
		return nil, fmt.Errorf("blocking: control crawl: %w", err)
	}
	out.ControlStatus = ctrlStatus
	if ctrlStatus != http.StatusOK {
		out.Verdict = noInference
		return out, nil
	}
	blocked := false
	for _, agent := range probeAgents {
		status, body, err := p.fetch(ctx, siteURL, useragent.FullUA(agent, "1.0"))
		if err != nil {
			if p.options.UseErrors {
				blocked = true
			}
			out.AIStatus[agent] = 0
			continue
		}
		out.AIStatus[agent] = status
		if status != ctrlStatus {
			blocked = true
			continue
		}
		if p.options.UseLength && significantDelta(len(ctrlBody), len(body), p.options.LengthRatio) {
			blocked = true
		}
	}
	if blocked {
		out.Verdict = blocksAI
	} else {
		out.Verdict = noBlocking
	}
	return out, nil
}

func significantDelta(control, ai int, ratio float64) bool {
	if control == 0 {
		return ai != 0
	}
	diff := control - ai
	if diff < 0 {
		diff = -diff
	}
	return float64(diff)/float64(control) >= ratio
}

func (p *prober) fetch(ctx context.Context, url, ua string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("User-Agent", ua)
	req.Header.Set(fingerprintHeader, fingerprintHeadless)
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String(), nil
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
	IP            string
	InherentBlock bool
	UABlock       bool
	Style         BlockStyle
	// RobotsRestrictsProbeAgents mirrors the §6.2 overlap measurement.
	RobotsRestrictsProbeAgents bool
}

// generatePopulation builds n survey sites with the paper's §6.2 mix.
// Counts are exact (category sizes are rounded, then assigned by shuffled
// position) so the survey reproduces the paper's proportions at any scale.
func generatePopulation(n int, seed int64) []siteSpec {
	rn := stats.NewRand(seed).Fork("blocking-population")
	nInherent := int(float64(n)*paperInherentRate + 0.5)
	nUA := int(float64(n)*PaperUABlockRate + 0.5)
	nOverlap := int(float64(nUA)*paperRobotsOverlapRate + 0.5)

	specs := make([]siteSpec, n)
	perm := rn.Perm(n)
	for i := range specs {
		specs[i] = siteSpec{
			Domain: fmt.Sprintf("top%05d.example", i+1),
			IP:     fmt.Sprintf("10.%d.%d.%d", 10+i/65536, (i/256)%256, i%256),
		}
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

// startSite hosts one survey site on the farm according to its spec.
func startSite(farm *webserver.Farm, spec siteSpec, bodySize int) (*webserver.Site, error) {
	body := "<html><body><h1>" + spec.Domain + "</h1>" +
		strings.Repeat("<p>content paragraph</p>\n", bodySize/25+1) + "</body></html>"
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
		chain = append(chain, &UABlocker{Patterns: probeAgents, Style: spec.Style})
	}
	cfg := webserver.Config{
		Domain:    spec.Domain,
		IP:        spec.IP,
		RobotsTxt: robotsTxt,
		Pages:     map[string]webserver.Page{"/": {Body: body}},
	}
	if len(chain) > 0 {
		cfg.Blocker = chain
	}
	return farm.StartSite(cfg)
}

// surveyFarmIP hosts every survey site: one listener for the whole
// population, outside the 10.10+.x.x block generatePopulation assigns to
// sites.
const surveyFarmIP = "10.9.0.1"

// SurveyResult aggregates the §6.2 measurement.
type SurveyResult struct {
	Probed            int
	InherentlyBlocked int
	ActiveBlockers    int
	NoBlocking        int
	// RobotsOverlap counts detected blockers that also restrict the probe
	// agents in robots.txt (the paper's 35-of-1,433 finding).
	RobotsOverlap int
}

// RunSurvey generates a population of n sites, hosts them, probes each
// with the §6.1 detector, and checks robots.txt overlap for detected
// blockers. workers bounds probe concurrency; cancellation is honored
// between sites.
func RunSurvey(ctx context.Context, n int, seed int64, workers int, opts DetectorOptions) (*SurveyResult, error) {
	if workers <= 0 {
		workers = 32
	}
	workers = par.Clamp(workers)
	nw := netsim.New()
	specs := generatePopulation(n, seed)
	sizeRand := stats.NewRand(seed).Fork("body-sizes")
	// The whole population shares one virtual-host farm: site startup is
	// a map insert plus an IP alias, not a per-site server.
	farm, err := webserver.NewFarm(nw, surveyFarmIP)
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
		if _, err := startSite(farm, spec, 1500+sizeRand.Intn(3000)); err != nil {
			return nil, err
		}
	}

	prober := func() *prober { return newProber(nw, "198.51.100.200", opts) }
	type job struct{ i int }
	verdicts := make([]siteVerdict, len(specs))
	jobs := make(chan job)
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := prober()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain remaining jobs after cancellation
				}
				out, err := p.probe(ctx, "http://"+specs[j.i].Domain+"/")
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				verdicts[j.i] = out.Verdict
			}
		}()
	}
	for i := range specs {
		jobs <- job{i}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}

	res := &SurveyResult{Probed: len(specs)}
	// The overlap pass issues requests without a caller context, so give
	// this client its own overall timeout as the bound.
	client := nw.HTTPClient("198.51.100.201")
	client.Timeout = 10 * time.Second
	for i, v := range verdicts {
		switch v {
		case noInference:
			res.InherentlyBlocked++
		case blocksAI:
			res.ActiveBlockers++
			if robotsRestricts(client, specs[i].Domain) {
				res.RobotsOverlap++
			}
		case noBlocking:
			res.NoBlocking++
		}
	}
	return res, nil
}

// robotsRestricts fetches the site's robots.txt with a neutral user agent
// and reports whether it explicitly restricts either probe agent.
func robotsRestricts(client *http.Client, domain string) bool {
	req, err := http.NewRequest(http.MethodGet, "http://"+domain+"/robots.txt", nil)
	if err != nil {
		return false
	}
	req.Header.Set("User-Agent", "robots-survey/1.0")
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	rb := parseRobots(sb.String())
	for _, agent := range probeAgents {
		if lvl, explicit := rb.ExplicitRestriction(agent); explicit && lvl.Restricted() {
			return true
		}
	}
	return false
}

// parseRobots is a tiny indirection for testability. It parses through
// the shared content-keyed cache: survey populations reuse a handful of
// robots.txt templates across thousands of sites.
func parseRobots(body string) *robots.Robots { return robots.ParseCached(body) }
