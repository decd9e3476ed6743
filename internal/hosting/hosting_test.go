package hosting

import (
	"strings"
	"testing"

	"repro/internal/agents"
	"repro/internal/robots"
	"repro/internal/useragent"
)

func TestProvidersTable(t *testing.T) {
	if len(providers) != 8 {
		t.Fatalf("providers = %d, want 8 (Table 2)", len(providers))
	}
	// Table 2's share column.
	wantShares := map[string]float64{
		"Squarespace": 20.7, "ArtStation": 20.4, "Wix (Paid)": 9.3,
		"Adobe Portfolio": 4.8, "Wix (Free)": 3.5, "Weebly": 3.1,
		"Shopify": 1.7, "Carbonmade": 1.5,
	}
	for name, share := range wantShares {
		p, ok := providerByName(name)
		if !ok {
			t.Fatalf("provider %q missing", name)
		}
		if p.SharePct != share {
			t.Errorf("%s share = %v, want %v", name, p.SharePct, share)
		}
	}
	// Control surfaces.
	checks := map[string]ControlLevel{
		"Squarespace": aiToggle, "Wix (Paid)": fullEdit,
		"Adobe Portfolio": searchEngineToggle, "Weebly": searchEngineToggle,
		"ArtStation": noControl, "Carbonmade": noControl,
	}
	for name, lvl := range checks {
		p, _ := providerByName(name)
		if p.Control != lvl {
			t.Errorf("%s control = %v, want %v", name, p.Control, lvl)
		}
	}
	if _, ok := providerByName("GeoCities"); ok {
		t.Error("unknown provider must not resolve")
	}
}

func TestControlLevelStrings(t *testing.T) {
	for lvl, want := range map[ControlLevel]string{
		noControl: "No", searchEngineToggle: "No (SE)",
		aiToggle: "No (AI, SE)", fullEdit: "Yes", ControlLevel(9): "?",
	} {
		if got := lvl.String(); got != want {
			t.Errorf("%d = %q, want %q", lvl, got, want)
		}
	}
}

func TestSquarespaceToggleRobots(t *testing.T) {
	p, _ := providerByName("Squarespace")
	off := robots.ParseString(p.robotsTxt(false))
	if _, explicit := off.ExplicitRestriction("GPTBot"); explicit {
		t.Error("toggle off: no AI restrictions")
	}
	on := robots.ParseString(p.robotsTxt(true))
	// All ten Appendix C.1 agents are fully disallowed.
	for _, ua := range p.ToggleAgents {
		lvl, explicit := on.ExplicitRestriction(ua)
		if !explicit || lvl != robots.FullyDisallowed {
			t.Errorf("toggle on: %s = %v explicit=%v, want fully disallowed", ua, lvl, explicit)
		}
	}
	if len(p.ToggleAgents) != 10 {
		t.Errorf("toggle agents = %d, want 10", len(p.ToggleAgents))
	}
}

func TestCarbonmadeDefaultBlocksAI(t *testing.T) {
	p, _ := providerByName("Carbonmade")
	rb := robots.ParseString(p.robotsTxt(false))
	for _, ua := range []string{"GPTBot", "CCBot"} {
		lvl, explicit := rb.ExplicitRestriction(ua)
		if !explicit || lvl != robots.FullyDisallowed {
			t.Errorf("Carbonmade default must block %s", ua)
		}
	}
	if !agents.RestrictsAnyAI(p.robotsTxt(false)) {
		t.Error("Carbonmade must count as disallowing AI")
	}
}

func TestWeeblyBlocker(t *testing.T) {
	p, _ := providerByName("Weebly")
	for ua, blocked := range map[string]bool{"Claudebot": true, "Bytespider": true, "GPTBot": false} {
		if _, hit := useragent.MatchesAny(useragent.FullUA(ua, "1.0"), p.BlockedUAs); hit != blocked {
			t.Errorf("Weebly blocks %s = %v, want %v", ua, hit, blocked)
		}
	}
}

func TestArtStationChallengesAutomation(t *testing.T) {
	p, _ := providerByName("ArtStation")
	if !p.ChallengesAutomation {
		t.Error("ArtStation must challenge automated requests")
	}
}

func TestNoBlockerProviders(t *testing.T) {
	for _, name := range []string{"Squarespace", "Wix (Paid)", "Adobe Portfolio", "Shopify"} {
		p, _ := providerByName(name)
		if len(p.BlockedUAs) > 0 || p.ChallengesAutomation {
			t.Errorf("%s should not block at the edge", name)
		}
	}
}

func TestGeneratePopulation(t *testing.T) {
	pop := GeneratePopulation(0, 13)
	if len(pop.Sites) != paperPopulationSize {
		t.Fatalf("population = %d, want %d", len(pop.Sites), paperPopulationSize)
	}
	counts := map[string]int{}
	for _, s := range pop.Sites {
		counts[s.Provider]++
		if s.Domain == "" {
			t.Fatal("site without domain")
		}
	}
	// Exact provider counts from Table 2 shares.
	for _, p := range providers {
		want := int(float64(paperPopulationSize)*p.SharePct/100 + 0.5)
		if counts[p.Name] != want {
			t.Errorf("%s sites = %d, want %d", p.Name, counts[p.Name], want)
		}
	}
	if counts[""] == 0 {
		t.Error("long-tail population missing")
	}
}

func TestIdentifyProvider(t *testing.T) {
	pop := GeneratePopulation(400, 13)
	for _, s := range pop.Sites {
		got := identifyProvider(pop.Zone, s.Domain)
		if got != s.Provider {
			t.Fatalf("%s: identified %q, want %q", s.Domain, got, s.Provider)
		}
	}
}

func TestTable2Reproduction(t *testing.T) {
	pop := GeneratePopulation(0, 13)
	rows := Table2(pop)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Provider] = r
	}
	// Ordering: descending share, Squarespace first.
	if rows[0].Provider != "Squarespace" || rows[1].Provider != "ArtStation" {
		t.Errorf("row order: %s, %s", rows[0].Provider, rows[1].Provider)
	}
	// Carbonmade: 100% disallow via defaults.
	if byName["Carbonmade"].DisallowAIPct != 100 {
		t.Errorf("Carbonmade disallow = %.1f%%, want 100%%", byName["Carbonmade"].DisallowAIPct)
	}
	// Squarespace: ≈17% (toggle adoption).
	sq := byName["Squarespace"]
	if sq.DisallowAIPct < 10 || sq.DisallowAIPct > 25 {
		t.Errorf("Squarespace disallow = %.1f%%, want ≈17%%", sq.DisallowAIPct)
	}
	// Everyone else: 0%.
	for _, name := range []string{"ArtStation", "Wix (Paid)", "Adobe Portfolio",
		"Wix (Free)", "Weebly", "Shopify"} {
		if byName[name].DisallowAIPct != 0 {
			t.Errorf("%s disallow = %.1f%%, want 0%%", name, byName[name].DisallowAIPct)
		}
	}
	// Shares approximate Table 2.
	if sq.SharePct < 19 || sq.SharePct > 22 {
		t.Errorf("Squarespace share = %.1f%%", sq.SharePct)
	}
}

func TestSummarize(t *testing.T) {
	pop := GeneratePopulation(0, 13)
	sum := Summarize(pop)
	if sum.ToggleEligible == 0 {
		t.Fatal("no toggle-eligible sites")
	}
	rate := float64(sum.ToggleEnabled) / float64(sum.ToggleEligible)
	if rate < 0.10 || rate > 0.25 {
		t.Errorf("toggle adoption = %.2f, want ≈0.17 (§4.4)", rate)
	}
	// Only paid Wix offers full editing; nobody edits (0 observed in the
	// paper), so fullEdit sites exist but contribute no AI restrictions.
	if sum.ByControl[fullEdit] == 0 {
		t.Error("paid Wix population missing")
	}
}

func TestRobotsTxtAlwaysParses(t *testing.T) {
	for _, p := range providers {
		for _, enabled := range []bool{false, true} {
			body := p.robotsTxt(enabled)
			rep := robots.Lint(body)
			if rep.Mistakes > 0 {
				t.Errorf("%s robots.txt has lint mistakes: %v", p.Name, rep.Warnings)
			}
			if !strings.Contains(body, "User-agent: *") {
				t.Errorf("%s robots.txt lacks a wildcard group", p.Name)
			}
		}
	}
}
