package agents

import (
	"strings"
	"testing"
	"time"

	"repro/internal/useragent"
)

func TestTable1Size(t *testing.T) {
	if len(Table1) != 24 {
		t.Fatalf("Table 1 has %d agents, want 24 (as in the paper)", len(Table1))
	}
}

func TestTable1TokensUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Table1 {
		tok := a.Token()
		if tok == "" {
			t.Errorf("agent %q has empty token", a.UserAgent)
		}
		if seen[tok] {
			t.Errorf("duplicate token %q", tok)
		}
		seen[tok] = true
	}
}

func TestVirtualTokens(t *testing.T) {
	var vt []Agent
	for _, a := range Table1 {
		if a.VirtualToken {
			vt = append(vt, a)
		}
	}
	if len(vt) != 3 {
		t.Fatalf("virtual tokens = %d, want 3", len(vt))
	}
	want := map[string]bool{
		"Applebot-Extended": true, "Google-Extended": true, "Webzio-Extended": true,
	}
	for _, a := range vt {
		if !want[a.UserAgent] {
			t.Errorf("unexpected virtual token %q", a.UserAgent)
		}
		if a.PublishesIPs != Unknown {
			t.Errorf("%s: virtual tokens have no IPs, PublishesIPs must be '-'", a.UserAgent)
		}
		if a.IPPrefix != "" {
			t.Errorf("%s: virtual token must not have an IP prefix", a.UserAgent)
		}
	}
	if len(RealCrawlers())+len(vt) != len(Table1) {
		t.Error("real + virtual must partition Table 1")
	}
}

func TestRealCrawlersHaveIPs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range RealCrawlers() {
		if a.IPPrefix == "" {
			t.Errorf("%s: real crawler needs a simulated IP prefix", a.UserAgent)
		}
		if seen[a.IPPrefix] {
			t.Errorf("%s: IP prefix %s reused", a.UserAgent, a.IPPrefix)
		}
		seen[a.IPPrefix] = true
	}
}

func TestByToken(t *testing.T) {
	a, ok := ByToken("gptbot")
	if !ok || a.Company != "OpenAI" {
		t.Fatalf("ByToken(gptbot) = %+v, %v", a, ok)
	}
	// Full UA strings resolve via token extraction.
	a, ok = ByToken(useragent.FullUA("ClaudeBot", "1.0")[strings.Index(useragent.FullUA("ClaudeBot", "1.0"), "ClaudeBot"):])
	if !ok || a.Company != "Anthropic" {
		t.Fatalf("ByToken(ClaudeBot/1.0…) = %+v, %v", a, ok)
	}
	if _, ok := ByToken("NotARealBot"); ok {
		t.Fatal("unknown token must not resolve")
	}
}

// byTokenReference is ByToken as it was before Table 1's tokens were
// lowercased once: it lowercases both sides on every comparison.
func byTokenReference(token string) (Agent, bool) {
	want := strings.ToLower(useragent.ExtractToken(token))
	for _, a := range Table1 {
		if a.Token() == want {
			return a, true
		}
	}
	return Agent{}, false
}

// FuzzByTokenMatchesReference: ByToken resolves every input to the agent
// the per-call lowercasing lookup does, or to none when it does.
func FuzzByTokenMatchesReference(f *testing.F) {
	for _, a := range Table1 {
		f.Add(a.UserAgent)
		f.Add(strings.ToUpper(a.UserAgent))
		f.Add(strings.ToLower(a.UserAgent))
		f.Add(a.FullUserAgent()[strings.LastIndex(a.FullUserAgent(), "; ")+2:])
	}
	for _, s := range []string{"", " ", "  gptbot/1.1 ", "Kangaroo", "Kangaroo Bot", "GPTBot\u212a", "\u212aangaroo", "Mozilla/5.0", "NotARealBot"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, token string) {
		got, gotOK := ByToken(token)
		want, wantOK := byTokenReference(token)
		if gotOK != wantOK || got.UserAgent != want.UserAgent {
			t.Fatalf("ByToken(%q) = %q, %v; reference = %q, %v", token, got.UserAgent, gotOK, want.UserAgent, wantOK)
		}
	})
}

// TestByTokenAllocs: a lookup, hit or miss, in any case, allocates
// nothing.
func TestByTokenAllocs(t *testing.T) {
	for _, tok := range []string{"GPTBot", "gptbot", "YouBot", "ClaudeBot/1.0", "NotARealBot"} {
		if n := testing.AllocsPerRun(100, func() { ByToken(tok) }); n != 0 {
			t.Errorf("ByToken(%q): %v allocs per call, want 0", tok, n)
		}
	}
}

func TestCategories(t *testing.T) {
	// Paper's taxonomy: spot-check representative classifications.
	checks := map[string]Category{
		"GPTBot":        AIData,
		"ChatGPT-User":  AIAssistant,
		"OAI-SearchBot": AISearch,
		"anthropic-ai":  Undocumented,
		"Bytespider":    AIData,
		"PerplexityBot": AISearch,
	}
	for tok, want := range checks {
		a, ok := ByToken(tok)
		if !ok {
			t.Fatalf("missing %s", tok)
		}
		if a.Category != want {
			t.Errorf("%s category = %v, want %v", tok, a.Category, want)
		}
	}
	undocumented := 0
	for _, a := range Table1 {
		if a.Category == Undocumented {
			undocumented++
		}
	}
	if undocumented != 3 {
		t.Errorf("undocumented agents = %d, want 3 (anthropic-ai, Claude-Web, cohere-ai)", undocumented)
	}
}

func TestCategoryStrings(t *testing.T) {
	for c, want := range map[Category]string{
		AIData: "AI Data", AIAssistant: "AI Assistant", AISearch: "AI Search",
		Undocumented: "Undocumented AI", Category(9): "Unknown",
	} {
		if got := c.String(); got != want {
			t.Errorf("Category(%d) = %q, want %q", c, got, want)
		}
	}
}

func TestTriStateStrings(t *testing.T) {
	if Yes.String() != "Yes" || No.String() != "No" || Unknown.String() != "-" {
		t.Fatal("tri-state rendering broken")
	}
}

func TestTable1PaperFacts(t *testing.T) {
	// §5.2.1: Bytespider fetches robots.txt but does not respect it.
	bs, _ := ByToken("Bytespider")
	if bs.RespectsInPractice != No {
		t.Error("Bytespider must be recorded as not respecting robots.txt")
	}
	// The seven respecting visitors of the passive study.
	for _, tok := range []string{"Amazonbot", "Applebot", "CCBot", "ClaudeBot",
		"GPTBot", "Meta-ExternalAgent", "OAI-SearchBot", "ChatGPT-User"} {
		a, _ := ByToken(tok)
		if a.RespectsInPractice != Yes {
			t.Errorf("%s must be recorded as respecting robots.txt", tok)
		}
	}
	// Meta-ExternalFetcher documents that it ignores robots.txt (§8.1).
	mef, _ := ByToken("Meta-ExternalFetcher")
	if mef.ClaimsRespect != No {
		t.Error("Meta-ExternalFetcher claims not to respect robots.txt")
	}
}

func TestAnnouncedBy(t *testing.T) {
	aug2023 := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	if AnnouncedBy("GPTBot", aug2023.AddDate(0, -1, 0)) {
		t.Error("GPTBot was not announced before Aug 2023")
	}
	if !AnnouncedBy("GPTBot", aug2023) {
		t.Error("GPTBot was announced by Aug 2023")
	}
	if !AnnouncedBy("CCBot", time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC)) {
		t.Error("CCBot predates the study window")
	}
	if !AnnouncedBy("TotallyUnknownBot", time.Time{}) {
		t.Error("unknown tokens must not be gated")
	}
}

func TestFigure3AgentsResolvable(t *testing.T) {
	if len(Figure3Agents) != 10 {
		t.Fatalf("figure 3 plots 10 agents, have %d", len(Figure3Agents))
	}
	for _, tok := range Figure3Agents {
		if _, ok := ByToken(tok); !ok {
			t.Errorf("figure 3 agent %q not in Table 1", tok)
		}
	}
}

func TestSquarespaceList(t *testing.T) {
	if len(SquarespaceBlockedAgents) != 10 {
		t.Fatalf("Squarespace blocks %d agents, want 10 (App. C.1)",
			len(SquarespaceBlockedAgents))
	}
	for _, ua := range SquarespaceBlockedAgents {
		if _, ok := ByToken(ua); !ok {
			t.Errorf("Squarespace agent %q not in Table 1", ua)
		}
	}
}

func TestCloudflareBlockAIBotsList(t *testing.T) {
	if len(CloudflareBlockAIBots) != 17 {
		t.Fatalf("Block AI Bots blocks %d user agents, want 17 (§6.3)",
			len(CloudflareBlockAIBots))
	}
	// Five entries are outside the 24 studied agents: the four the C.3
	// note calls out as not on the Dark Visitors AI list (AwarioRssBot,
	// AwarioSmartBot, magpie-crawler, MeltwaterNews) plus PiplBot.
	nonAI := 0
	for _, pat := range CloudflareBlockAIBots {
		tok := strings.TrimSuffix(pat, "/")
		if _, ok := ByToken(tok); !ok {
			nonAI++
		}
	}
	if nonAI != 5 {
		t.Errorf("non-Table-1 entries = %d, want 5", nonAI)
	}
}

func TestCloudflareDefinitelyAutomatedList(t *testing.T) {
	if len(CloudflareDefinitelyAutomated) != 34 {
		t.Fatalf("Definitely Automated blocks %d user agents, want 34 (App. C.2)",
			len(CloudflareDefinitelyAutomated))
	}
	// The §6.3 probe UAs must be present.
	for _, ua := range []string{"Claudebot", "anthropic-ai", "HeadlessChrome", "libwww-perl"} {
		found := false
		for _, e := range CloudflareDefinitelyAutomated {
			if strings.EqualFold(e, ua) {
				found = true
			}
		}
		if !found {
			t.Errorf("%q missing from Definitely Automated list", ua)
		}
	}
}

func TestVerifiedAIBots(t *testing.T) {
	// §6.3 footnote 8: Applebot, OAI-SearchBot, ICC Crawler and
	// DuckAssistbot are verified but NOT blocked.
	for ua, blocked := range map[string]bool{
		"Applebot": false, "OAI-SearchBot": false, "ICC Crawler": false,
		"DuckAssistbot": false, "Amazonbot": true, "GPTBot": true,
		"ChatGPT-User": true,
	} {
		got, ok := CloudflareVerifiedAIBots[ua]
		if !ok {
			t.Errorf("%q missing from verified list", ua)
			continue
		}
		if got != blocked {
			t.Errorf("%q blocked=%v, want %v", ua, got, blocked)
		}
	}
}

func TestGenericCrawlerUserAgents(t *testing.T) {
	uas := GenericCrawlerUserAgents(590)
	if len(uas) != 590 {
		t.Fatalf("len = %d", len(uas))
	}
	seen := map[string]bool{}
	for _, ua := range uas {
		if seen[ua] {
			t.Fatalf("duplicate UA %q", ua)
		}
		seen[ua] = true
		if !strings.Contains(ua, "/") {
			t.Fatalf("UA %q lacks version", ua)
		}
	}
	// Determinism.
	again := GenericCrawlerUserAgents(590)
	for i := range uas {
		if uas[i] != again[i] {
			t.Fatal("generic UA list must be deterministic")
		}
	}
}

func TestFullUserAgent(t *testing.T) {
	a, _ := ByToken("GPTBot")
	full := a.FullUserAgent()
	if !useragent.ContainsFold(full, "GPTBot/") {
		t.Fatalf("full UA %q must contain token/version", full)
	}
}
