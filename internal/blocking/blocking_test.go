package blocking

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/netsim"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

func TestUABlockerStyles(t *testing.T) {
	mk := func(style BlockStyle) *UABlocker {
		return &UABlocker{Patterns: []string{"ClaudeBot"}, Style: style}
	}
	req, _ := http.NewRequest("GET", "http://x/", nil)
	req.Header.Set("User-Agent", useragent.FullUA("ClaudeBot", "1.0"))

	if d := mk(StyleForbidden).Check(req); d == nil || d.Status != 403 || d.Challenge {
		t.Fatalf("forbidden style = %+v", d)
	}
	if d := mk(styleChallenge).Check(req); d == nil || !d.Challenge {
		t.Fatalf("challenge style = %+v", d)
	}
	if d := mk(styleSoft200).Check(req); d == nil || d.Status != 200 {
		t.Fatalf("soft-200 style = %+v", d)
	}
	// Non-matching UA passes.
	req2, _ := http.NewRequest("GET", "http://x/", nil)
	req2.Header.Set("User-Agent", useragent.BrowserChromeUA)
	if d := mk(StyleForbidden).Check(req2); d != nil {
		t.Fatal("browser UA must pass")
	}
}

func TestAutomationBlocker(t *testing.T) {
	req, _ := http.NewRequest("GET", "http://x/", nil)
	req.Header.Set("User-Agent", useragent.BrowserChromeUA)
	if d := (automationBlocker{}).Check(req); d != nil {
		t.Fatal("no fingerprint → pass")
	}
	req.Header.Set(fingerprintHeader, fingerprintHeadless)
	if d := (automationBlocker{}).Check(req); d == nil || d.Status != 403 {
		t.Fatal("fingerprinted tool must be blocked")
	}
}

func TestChainFirstDecisionWins(t *testing.T) {
	c := blockerChain{
		automationBlocker{},
		&UABlocker{Patterns: []string{"ClaudeBot"}, Style: styleSoft200},
	}
	req, _ := http.NewRequest("GET", "http://x/", nil)
	req.Header.Set("User-Agent", useragent.FullUA("ClaudeBot", "1.0"))
	req.Header.Set(fingerprintHeader, fingerprintHeadless)
	if d := c.Check(req); d == nil || d.Status != 403 {
		t.Fatal("automation blocker must take precedence")
	}
}

func testFarm(t *testing.T, nw *netsim.Network) *webserver.Farm {
	t.Helper()
	farm, err := webserver.NewFarm(nw, surveyFarmIP)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { farm.Close() })
	return farm
}

func TestProbeVerdicts(t *testing.T) {
	nw := netsim.New()
	farm := testFarm(t, nw)
	cases := []struct {
		name string
		spec siteSpec
		want siteVerdict
		opts DetectorOptions
	}{
		{"open site", siteSpec{Domain: "open.example"}, noBlocking, DefaultDetector},
		{"ua blocker 403", siteSpec{Domain: "ua403.example", UABlock: true, Style: StyleForbidden}, blocksAI, DefaultDetector},
		{"ua blocker challenge", siteSpec{Domain: "uach.example", UABlock: true, Style: styleChallenge}, blocksAI, DefaultDetector},
		{"ua blocker soft200", siteSpec{Domain: "soft.example", UABlock: true, Style: styleSoft200}, blocksAI, DefaultDetector},
		{"soft200 invisible to status-only", siteSpec{Domain: "soft2.example", UABlock: true, Style: styleSoft200}, noBlocking, StatusOnlyDetector},
		{"inherent blocker", siteSpec{Domain: "inh.example", InherentBlock: true}, noInference, DefaultDetector},
		{"inherent + ua", siteSpec{Domain: "both.example", InherentBlock: true, UABlock: true}, noInference, DefaultDetector},
	}
	for _, tc := range cases {
		tc.spec.PageBytes = 2000
		site, err := startSite(farm, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rec, err := probe(context.Background(), nw.HTTPClient("198.51.100.220"), site.Domain())
		site.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v := rec.verdict(tc.opts); v != tc.want {
			t.Errorf("%s: verdict = %v, want %v", tc.name, v, tc.want)
		}
	}
}

func TestRealCrawlerNotInherentlyBlocked(t *testing.T) {
	// A real crawler (no fingerprint header) passes an inherent blocker —
	// the lower-bound property the paper notes.
	nw := netsim.New()
	spec := siteSpec{Domain: "inh2.example", InherentBlock: true, PageBytes: 2000}
	site, err := startSite(testFarm(t, nw), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	client := nw.HTTPClient("24.0.1.50")
	req, _ := http.NewRequest("GET", site.URL()+"/", nil)
	req.Header.Set("User-Agent", useragent.FullUA("GPTBot", "1.0"))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("real crawler got %d; inherent blocking must only hit the probe tool", resp.StatusCode)
	}
}

func TestGeneratePopulationCounts(t *testing.T) {
	n := 2000
	specs := generatePopulation(n, 5)
	if len(specs) != n {
		t.Fatalf("population = %d", len(specs))
	}
	var inherent, ua, overlap int
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Domain] {
			t.Fatalf("duplicate domain: %+v", s)
		}
		seen[s.Domain] = true
		if s.InherentBlock {
			inherent++
			if s.UABlock {
				t.Fatal("categories must be disjoint")
			}
		}
		if s.UABlock {
			ua++
			if s.RobotsRestrictsProbeAgents {
				overlap++
			}
		} else if s.RobotsRestrictsProbeAgents {
			t.Fatal("robots overlap only applies to UA blockers")
		}
	}
	wantInherent := int(float64(n)*paperInherentRate + 0.5)
	wantUA := int(float64(n)*PaperUABlockRate + 0.5)
	if inherent != wantInherent {
		t.Errorf("inherent = %d, want %d", inherent, wantInherent)
	}
	if ua != wantUA {
		t.Errorf("ua blockers = %d, want %d", ua, wantUA)
	}
	wantOverlap := int(float64(wantUA)*paperRobotsOverlapRate + 0.5)
	if overlap != wantOverlap {
		t.Errorf("robots overlap = %d, want %d", overlap, wantOverlap)
	}
}

func TestRunSurveySmall(t *testing.T) {
	n := 400
	tallies, err := RunSurvey(context.Background(), n, 9, 16)
	if err != nil {
		t.Fatal(err)
	}
	res := tallies.Under(DefaultDetector)
	if res.Probed != n {
		t.Fatalf("probed = %d", res.Probed)
	}
	wantInherent := int(float64(n)*paperInherentRate + 0.5)
	wantUA := int(float64(n)*PaperUABlockRate + 0.5)
	if res.InherentlyBlocked != wantInherent {
		t.Errorf("inherently blocked = %d, want %d", res.InherentlyBlocked, wantInherent)
	}
	if res.ActiveBlockers != wantUA {
		t.Errorf("active blockers = %d, want %d (detector must find them all)",
			res.ActiveBlockers, wantUA)
	}
	wantOverlap := int(float64(wantUA)*paperRobotsOverlapRate + 0.5)
	if res.RobotsOverlap != wantOverlap {
		t.Errorf("robots overlap = %d, want %d", res.RobotsOverlap, wantOverlap)
	}
	if res.NoBlocking != n-wantInherent-wantUA {
		t.Errorf("no-blocking = %d", res.NoBlocking)
	}

	// Neither the shard split nor the robots pass folded into it may
	// show: one worker gives the same result as many, under both
	// detectors.
	one, err := RunSurvey(context.Background(), n, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *one != *tallies {
		t.Errorf("workers 1 = %+v, workers 16 = %+v", *one, *tallies)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSurvey(ctx, n, 9, 16); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled survey: err = %v, want context.Canceled", err)
	}
}

func TestStatusOnlyDetectorUndercounts(t *testing.T) {
	res, err := RunSurvey(context.Background(), 400, 9, 16)
	if err != nil {
		t.Fatal(err)
	}
	full, statusOnly := res.Under(DefaultDetector), res.Under(StatusOnlyDetector)
	if statusOnly.ActiveBlockers >= full.ActiveBlockers {
		t.Errorf("status-only (%d) must miss the soft-200 blockers full (%d) catches",
			statusOnly.ActiveBlockers, full.ActiveBlockers)
	}
}

// referenceProbe is the §6.1 probe as it was before one probe served
// both detectors: it classifies under opts while it crawls.
func referenceProbe(ctx context.Context, client *http.Client, domain string, opts DetectorOptions) (siteVerdict, error) {
	ctrlStatus, ctrlBody, err := netsim.Get(ctx, client, domain, "/", controlHdr)
	if err != nil {
		return 0, fmt.Errorf("blocking: control crawl: %w", err)
	}
	if ctrlStatus != http.StatusOK {
		return noInference, nil
	}
	blocked := false
	for i := range probeAgents {
		status, body, err := netsim.Get(ctx, client, domain, "/", agentHdrs[i])
		if err != nil {
			if !opts.StatusOnly {
				blocked = true
			}
			continue
		}
		if status != ctrlStatus {
			blocked = true
			continue
		}
		if !opts.StatusOnly && significantDelta(len(ctrlBody), len(body)) {
			blocked = true
		}
	}
	if blocked {
		return blocksAI, nil
	}
	return noBlocking, nil
}

// referenceSurvey is the per-detector survey: a whole probe pass for one
// detector, with robots.txt checked for that detector's blockers.
func referenceSurvey(ctx context.Context, n int, seed int64, workers int, opts DetectorOptions) (*SurveyResult, []siteVerdict, error) {
	type site struct {
		v      siteVerdict
		robots bool
	}
	sites, err := hostAndProbe(ctx, workers, topAddrs, generatePopulation(n, seed), startSite,
		func(ctx context.Context, client, robotsClient *http.Client, spec siteSpec) (s site, err error) {
			s.v, err = referenceProbe(ctx, client, spec.Domain, opts)
			if err == nil && s.v == blocksAI {
				s.robots, err = robotsSays(ctx, robotsClient, spec.Domain, restrictsProbeAgents)
			}
			return s, err
		})
	if err != nil {
		return nil, nil, err
	}
	res := &SurveyResult{}
	verdicts := make([]siteVerdict, len(sites))
	for i, s := range sites {
		verdicts[i] = s.v
		res.count(s.v, s.robots)
	}
	return res, verdicts, nil
}

// TestSurveyOnePassMatchesPerDetector: one probe pass classified under
// both detectors gives each detector the tally, and each site the
// verdict, of a survey run for that detector alone; and every
// status-only blocker is a full-detector blocker.
func TestSurveyOnePassMatchesPerDetector(t *testing.T) {
	ctx := context.Background()
	const n = 600
	for _, seed := range []int64{9, 7} {
		got, err := RunSurvey(ctx, n, seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := hostAndProbe(ctx, 4, topAddrs, generatePopulation(n, seed), startSite, probeSite)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []DetectorOptions{DefaultDetector, StatusOnlyDetector} {
			want, verdicts, err := referenceSurvey(ctx, n, seed, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			if *got.Under(opts) != *want {
				t.Errorf("seed %d %+v: one pass = %+v, per detector = %+v", seed, opts, *got.Under(opts), *want)
			}
			for i, r := range sites {
				v := r.full
				if opts.StatusOnly {
					v = r.statusOnly
				}
				if v != verdicts[i] {
					t.Errorf("seed %d %+v: site %d verdict = %v, per detector = %v", seed, opts, i, v, verdicts[i])
				}
			}
		}
		soft := 0
		for i, r := range sites {
			if r.statusOnly == blocksAI && r.full != blocksAI {
				t.Errorf("seed %d: site %d blocks under status-only (%v) but not under full", seed, i, r.full)
			}
			if r.full == blocksAI && r.statusOnly != blocksAI {
				soft++
			}
		}
		if soft == 0 {
			t.Errorf("seed %d: no site separates the detectors", seed)
		}
	}
}

// TestVerdictStatusOnlyImpliesFull: over every combination of control
// and agent observations, a status-only blocker is a full-detector
// blocker, and the two detectors agree on what says nothing.
func TestVerdictStatusOnlyImpliesFull(t *testing.T) {
	fetches := []agentFetch{
		{Status: 200, Len: 3000}, {Status: 200, Len: 2900}, {Status: 200, Len: 30},
		{Status: 403, Len: 3000}, {Status: 403, Len: 40}, {Failed: true},
	}
	for _, ctrl := range []int{200, 403, 503} {
		for _, a0 := range fetches {
			for _, a1 := range fetches {
				rec := probeRecord{ControlStatus: ctrl, ControlLen: 3000, Agents: [len(probeAgents)]agentFetch{a0, a1}}
				full, statusOnly := rec.verdict(DefaultDetector), rec.verdict(StatusOnlyDetector)
				if statusOnly == blocksAI && full != blocksAI {
					t.Errorf("%+v: status-only blocks, full says %v", rec, full)
				}
				if (full == noInference) != (statusOnly == noInference) || (full == noInference) != (ctrl != 200) {
					t.Errorf("%+v: full %v, status-only %v", rec, full, statusOnly)
				}
			}
		}
	}
}

func TestSignificantDelta(t *testing.T) {
	if !significantDelta(1000, 100) {
		t.Error("90% shrink is significant")
	}
	if significantDelta(1000, 900) {
		t.Error("10% shrink is not significant at ratio 0.5")
	}
	if !significantDelta(0, 10) {
		t.Error("growth from zero is significant")
	}
	if significantDelta(0, 0) {
		t.Error("zero vs zero is not significant")
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[siteVerdict]string{
		noInference:     "inherently blocks automation",
		blocksAI:        "actively blocks AI user agents",
		noBlocking:      "no user-agent blocking detected",
		siteVerdict(42): "unknown",
	} {
		if got := v.String(); got != want {
			t.Errorf("%d = %q, want %q", v, got, want)
		}
	}
}

func TestBlockerAgainstRealServerLog(t *testing.T) {
	// End-to-end: blocked requests appear in the site log with their
	// block status, like §6's server-side evidence.
	nw := netsim.New()
	spec := siteSpec{Domain: "log.example", UABlock: true, Style: StyleForbidden, PageBytes: 1000}
	site, err := startSite(testFarm(t, nw), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	if _, err := probe(context.Background(), nw.HTTPClient("198.51.100.221"), site.Domain()); err != nil {
		t.Fatal(err)
	}
	var saw403 bool
	for _, rec := range site.Log() {
		if rec.Status == 403 {
			saw403 = true
		}
	}
	if !saw403 {
		t.Fatal("block decisions must be visible in the server log")
	}
	_ = webserver.Record{}
}
