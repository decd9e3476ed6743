package blocking

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agents"
	"repro/internal/netsim"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

// farmSeq hands each test farm a distinct listener IP so several farms
// can share one test network.
var farmSeq atomic.Uint32

func startProxied(t *testing.T, nw *netsim.Network, domain, ip string, s settings) (*webserver.Site, *proxy) {
	t.Helper()
	px := newProxy(s)
	farm, err := webserver.NewFarm(nw, "11.9.1."+itoa(int(farmSeq.Add(1))))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { farm.Close() })
	site, err := farm.StartSite(webserver.Config{
		Domain: domain, IP: ip,
		Pages:   map[string]webserver.Page{"/": {Body: "<html><body>real content here</body></html>"}},
		Blocker: px,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site, px
}

func fetchAs(t *testing.T, client *http.Client, url, ua string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("User-Agent", ua)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func TestBlockAIBotsBlocksListedAgents(t *testing.T) {
	nw := netsim.New()
	site, _ := startProxied(t, nw, "p1.test", "203.0.113.90", settings{BlockAIBots: true})
	client := nw.HTTPClient("198.51.100.1")

	for _, tok := range []string{"GPTBot", "CCBot", "ClaudeBot", "Bytespider", "PerplexityBot"} {
		status, body := fetchAs(t, client, site.URL()+"/", useragent.FullUA(tok, "1.0"))
		if status != 403 || !strings.Contains(body, blockPageMarker) {
			t.Errorf("%s: status=%d, want block page", tok, status)
		}
	}
	// Applebot and OAI-SearchBot are NOT blocked (§6.3 footnote 8).
	for _, tok := range []string{"Applebot", "OAI-SearchBot"} {
		status, _ := fetchAs(t, client, site.URL()+"/", useragent.FullUA(tok, "1.0"))
		if status != 200 {
			t.Errorf("%s: status=%d, must pass", tok, status)
		}
	}
	// Browsers pass.
	status, body := fetchAs(t, client, site.URL()+"/", useragent.BrowserChromeUA)
	if status != 200 || !strings.Contains(body, "real content") {
		t.Errorf("browser: %d %q", status, body)
	}
}

func TestBlockAIOffPassesEverything(t *testing.T) {
	nw := netsim.New()
	site, _ := startProxied(t, nw, "p2.test", "203.0.113.91", settings{})
	client := nw.HTTPClient("198.51.100.2")
	for _, tok := range []string{"GPTBot", "ClaudeBot", "curl"} {
		status, _ := fetchAs(t, client, site.URL()+"/", useragent.FullUA(tok, "1.0"))
		if status != 200 {
			t.Errorf("%s blocked with everything off", tok)
		}
	}
}

func TestChallengeFlavor(t *testing.T) {
	nw := netsim.New()
	site, _ := startProxied(t, nw, "p3.test", "203.0.113.92",
		settings{BlockAIBots: true, ChallengeAI: true})
	client := nw.HTTPClient("198.51.100.3")
	_, body := fetchAs(t, client, site.URL()+"/", useragent.FullUA("ClaudeBot", "1.0"))
	if !strings.Contains(body, challengePageMarker) {
		t.Fatal("challenge flavor must serve challenge pages")
	}
}

func TestDefinitelyAutomated(t *testing.T) {
	nw := netsim.New()
	site, _ := startProxied(t, nw, "p4.test", "203.0.113.93",
		settings{DefinitelyAutomated: true})
	client := nw.HTTPClient("198.51.100.4")

	// Automation tools are challenged.
	for _, tok := range []string{"HeadlessChrome", "libwww-perl", "curl", "python-requests"} {
		_, body := fetchAs(t, client, site.URL()+"/", useragent.FullUA(tok, "1.0"))
		if !strings.Contains(body, challengePageMarker) {
			t.Errorf("%s must be challenged by Definitely Automated", tok)
		}
	}
	// A browser passes.
	status, _ := fetchAs(t, client, site.URL()+"/", useragent.BrowserChromeUA)
	if status != 200 {
		t.Error("browser must pass Definitely Automated")
	}
}

func TestVerifiedBotValidation(t *testing.T) {
	nw := netsim.New()
	site, _ := startProxied(t, nw, "p5.test", "203.0.113.94",
		settings{DefinitelyAutomated: true})

	gpt, _ := agents.ByToken("GPTBot")
	realBot := nw.HTTPClient(gpt.IPPrefix + ".5")
	status, _ := fetchAs(t, realBot, site.URL()+"/", gpt.FullUserAgent())
	if status != 200 {
		t.Error("the real GPTBot (correct range) bypasses Definitely Automated")
	}

	fakeBot := nw.HTTPClient("198.51.100.66")
	_, body := fetchAs(t, fakeBot, site.URL()+"/", gpt.FullUserAgent())
	if !strings.Contains(body, challengePageMarker) {
		t.Error("a fake GPTBot (wrong range) is definitely automated")
	}
}

func TestGreyBoxInfersBlockList(t *testing.T) {
	res, err := RunGreyBox(1, 590)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probed != 614 {
		t.Fatalf("probed = %d, want 614 (24 Table-1 + 590 public)", res.Probed)
	}
	if len(res.BlockedTokens) != 17 {
		t.Fatalf("inferred %d blocked tokens, want 17 (App. C.3): %v",
			len(res.BlockedTokens), res.BlockedTokens)
	}
	want := map[string]bool{
		"Amazonbot": true, "AwarioRssBot": true, "AwarioSmartBot": true,
		"Bytespider": true, "CCBot": true, "ChatGPT-User": true,
		"Claude-Web": true, "ClaudeBot": true, "cohere-ai": true,
		"Diffbot": true, "GPTBot": true, "magpie-crawler": true,
		"MeltwaterNews": true, "omgili": true, "PerplexityBot": true,
		"PiplBot": true, "YouBot": true,
	}
	for _, tok := range res.BlockedTokens {
		if !want[tok] {
			t.Errorf("unexpected blocked token %q", tok)
		}
	}
}

func TestInferBlockAIFlow(t *testing.T) {
	nw := netsim.New()
	client := nw.HTTPClient("198.51.100.7")
	cases := []struct {
		name string
		s    settings
		want inference
	}{
		{"off", settings{}, inferredOff},
		{"on-block", settings{BlockAIBots: true}, inferredOnBlock},
		{"on-challenge", settings{BlockAIBots: true, ChallengeAI: true}, inferredOnChallenge},
		{"da-only", settings{DefinitelyAutomated: true}, inconclusive},
		{"da-plus-ai", settings{DefinitelyAutomated: true, BlockAIBots: true}, inconclusive},
	}
	for i, tc := range cases {
		domain := "inf" + string(rune('a'+i)) + ".test"
		ip := "203.0.115." + itoa(10+i)
		site, _ := startProxied(t, nw, domain, ip, tc.s)
		got, err := inferBlockAI(context.Background(), client, site.Domain())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: inference = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func itoa(v int) string {
	var b [4]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestGenerateCFPopulation(t *testing.T) {
	n := 2018
	specs := generateCFPopulation(n, 4)
	if len(specs) != n {
		t.Fatalf("population = %d", len(specs))
	}
	var onBlock, onChallenge, da int
	for _, s := range specs {
		switch {
		case s.Settings.DefinitelyAutomated:
			da++
		case s.Settings.BlockAIBots && s.Settings.ChallengeAI:
			onChallenge++
		case s.Settings.BlockAIBots:
			onBlock++
		}
	}
	if onBlock != 77 {
		t.Errorf("on-block = %d, want 77", onBlock)
	}
	if onChallenge != 30 {
		t.Errorf("on-challenge = %d, want 30", onChallenge)
	}
	if da != 145 {
		t.Errorf("inconclusive (DA) = %d, want 145", da)
	}
}

func TestRunInferenceSurvey(t *testing.T) {
	n := 600
	res, err := RunInferenceSurvey(context.Background(), n, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != n {
		t.Fatalf("total = %d", res.Total)
	}
	wantOnBlock := int(float64(n)*onBlockRate + 0.5)
	wantOnChallenge := int(float64(n)*onChallengeRate + 0.5)
	wantInconclusive := int(float64(n)*inconclusiveRate + 0.5)
	if res.OnBlock != wantOnBlock {
		t.Errorf("on-block = %d, want %d", res.OnBlock, wantOnBlock)
	}
	if res.OnChallenge != wantOnChallenge {
		t.Errorf("on-challenge = %d, want %d", res.OnChallenge, wantOnChallenge)
	}
	if res.Inconclusive != wantInconclusive {
		t.Errorf("inconclusive = %d, want %d", res.Inconclusive, wantInconclusive)
	}
	if res.Off != n-wantOnBlock-wantOnChallenge-wantInconclusive {
		t.Errorf("off = %d", res.Off)
	}
	// Conclusive rate ≈ 93%, adoption ≈ 5.7% (§6.3).
	if cr := res.ConclusiveRate(); cr < 0.90 || cr > 0.95 {
		t.Errorf("conclusive rate = %.3f, want ≈0.93", cr)
	}
	if or := res.OnRate(); or < 0.04 || or > 0.08 {
		t.Errorf("on rate = %.3f, want ≈0.057", or)
	}
	// Robots correlation: enabled sites restrict AI in robots.txt at
	// roughly twice the rate of others (24% vs 12%).
	if res.OnRobotsRate <= res.OffRobotsRate {
		t.Errorf("robots correlation missing: on=%.2f off=%.2f",
			res.OnRobotsRate, res.OffRobotsRate)
	}

	// Neither the shard split nor the robots pass folded into it may
	// show: one worker gives the same result as many.
	one, err := RunInferenceSurvey(context.Background(), n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *one != *res {
		t.Errorf("workers 1 = %+v, workers 16 = %+v", *one, *res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunInferenceSurvey(ctx, n, 4, 16); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled survey: err = %v, want context.Canceled", err)
	}
}

func TestInferenceStrings(t *testing.T) {
	for i, want := range map[inference]string{
		inferredOff: "Block AI off", inferredOnBlock: "Block AI on (block)",
		inferredOnChallenge: "Block AI on (challenge)", inconclusive: "inconclusive",
		inference(9): "unknown",
	} {
		if got := i.String(); got != want {
			t.Errorf("%d = %q, want %q", i, got, want)
		}
	}
}

func TestProxyConfigureIsAtomic(t *testing.T) {
	px := newProxy(settings{})
	if px.current().BlockAIBots {
		t.Fatal("initial settings wrong")
	}
	px.configure(settings{BlockAIBots: true})
	if !px.current().BlockAIBots {
		t.Fatal("configure did not take")
	}
}

func TestClassifyResponse(t *testing.T) {
	if classifyResponse(200, "<html>hi</html>") != kindOK {
		t.Error("plain 200 is OK")
	}
	if classifyResponse(403, blockPage().Body) != kindBlock {
		t.Error("block page must classify as block")
	}
	if classifyResponse(403, challengePage().Body) != kindChallenge {
		t.Error("challenge page must classify as challenge")
	}
	if classifyResponse(500, "oops") != kindOther {
		t.Error("unmarked 500 is other")
	}
}
