package blocking

import (
	"bufio"
	"context"
	"errors"
	"io"
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
	farm, err := webserver.NewFarm(nw, "10.9.0.1")
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
		{"open site", siteSpec{Domain: "open.example", IP: "10.1.0.1"}, noBlocking, DefaultDetector},
		{"ua blocker 403", siteSpec{Domain: "ua403.example", IP: "10.1.0.2", UABlock: true, Style: StyleForbidden}, blocksAI, DefaultDetector},
		{"ua blocker challenge", siteSpec{Domain: "uach.example", IP: "10.1.0.3", UABlock: true, Style: styleChallenge}, blocksAI, DefaultDetector},
		{"ua blocker soft200", siteSpec{Domain: "soft.example", IP: "10.1.0.4", UABlock: true, Style: styleSoft200}, blocksAI, DefaultDetector},
		{"soft200 invisible to status-only", siteSpec{Domain: "soft2.example", IP: "10.1.0.5", UABlock: true, Style: styleSoft200}, noBlocking, StatusOnlyDetector},
		{"inherent blocker", siteSpec{Domain: "inh.example", IP: "10.1.0.6", InherentBlock: true}, noInference, DefaultDetector},
		{"inherent + ua", siteSpec{Domain: "both.example", IP: "10.1.0.7", InherentBlock: true, UABlock: true}, noInference, DefaultDetector},
	}
	for _, tc := range cases {
		site, err := startSite(farm, tc.spec, 2000)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p := newProber(nw, "198.51.100.220", tc.opts)
		out, err := p.probe(context.Background(), site.URL()+"/")
		site.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Verdict != tc.want {
			t.Errorf("%s: verdict = %v, want %v", tc.name, out.Verdict, tc.want)
		}
	}
}

// TestProbeTruncatedBody: a control page cut short is a failed crawl,
// not a 10-byte page to compare the AI crawls against.
func TestProbeTruncatedBody(t *testing.T) {
	nw := netsim.New()
	ln, err := nw.Listen("10.1.0.10", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("trunc.example", "10.1.0.10")
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, err := http.ReadRequest(bufio.NewReader(c)); err == nil {
					io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789")
				}
			}()
		}
	}()
	p := newProber(nw, "198.51.100.222", DefaultDetector)
	if out, err := p.probe(context.Background(), "http://trunc.example/"); err == nil {
		t.Fatalf("truncated control page classified as %v", out.Verdict)
	}
}

func TestRealCrawlerNotInherentlyBlocked(t *testing.T) {
	// A real crawler (no fingerprint header) passes an inherent blocker —
	// the lower-bound property the paper notes.
	nw := netsim.New()
	spec := siteSpec{Domain: "inh2.example", IP: "10.1.0.8", InherentBlock: true}
	site, err := startSite(testFarm(t, nw), spec, 2000)
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
		if seen[s.Domain] || seen[s.IP] {
			t.Fatalf("duplicate domain or IP: %+v", s)
		}
		seen[s.Domain], seen[s.IP] = true, true
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
	res, err := RunSurvey(context.Background(), n, 9, 16, DefaultDetector)
	if err != nil {
		t.Fatal(err)
	}
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
	for _, opts := range []DetectorOptions{DefaultDetector, StatusOnlyDetector} {
		many, err := RunSurvey(context.Background(), n, 9, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		one, err := RunSurvey(context.Background(), n, 9, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if *one != *many {
			t.Errorf("%+v: workers 1 = %+v, workers 16 = %+v", opts, *one, *many)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSurvey(ctx, n, 9, 16, DefaultDetector); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled survey: err = %v, want context.Canceled", err)
	}
}

func TestStatusOnlyDetectorUndercounts(t *testing.T) {
	n := 400
	full, err := RunSurvey(context.Background(), n, 9, 16, DefaultDetector)
	if err != nil {
		t.Fatal(err)
	}
	statusOnly, err := RunSurvey(context.Background(), n, 9, 16, StatusOnlyDetector)
	if err != nil {
		t.Fatal(err)
	}
	if statusOnly.ActiveBlockers >= full.ActiveBlockers {
		t.Errorf("status-only (%d) must miss the soft-200 blockers full (%d) catches",
			statusOnly.ActiveBlockers, full.ActiveBlockers)
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
	spec := siteSpec{Domain: "log.example", IP: "10.1.0.9", UABlock: true, Style: StyleForbidden}
	site, err := startSite(testFarm(t, nw), spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	p := newProber(nw, "198.51.100.221", DefaultDetector)
	if _, err := p.probe(context.Background(), site.URL()+"/"); err != nil {
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
