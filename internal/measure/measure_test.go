package measure

import (
	"context"
	"errors"
	"testing"

	"repro/internal/agents"
	"repro/internal/crawler"
)

func TestPassiveStudy(t *testing.T) {
	res, err := RunPassive(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2.1: nine crawlers visited.
	if len(res.Visitors) != 9 {
		t.Fatalf("visitors = %v, want 9 crawlers", res.Visitors)
	}
	// The seven respecting crawlers.
	for _, tok := range []string{"Amazonbot", "Applebot", "CCBot", "ClaudeBot",
		"GPTBot", "Meta-ExternalAgent", "OAI-SearchBot"} {
		if res.Verdicts[tok] != Respected {
			t.Errorf("%s verdict = %v, want respected", tok, res.Verdicts[tok])
		}
	}
	// Bytespider fetched but ignored.
	if res.Verdicts["Bytespider"] != fetchedIgnored {
		t.Errorf("Bytespider verdict = %v, want fetch-ignore", res.Verdicts["Bytespider"])
	}
	// ChatGPT-User's single anomalous visit.
	if res.Verdicts["ChatGPT-User"] != Anomalous {
		t.Errorf("ChatGPT-User verdict = %v, want anomalous", res.Verdicts["ChatGPT-User"])
	}
	// IP attribution holds for every visitor with a known prefix.
	for tok, ok := range res.IPVerified {
		if !ok {
			t.Errorf("%s visited from outside its simulated range", tok)
		}
	}
}

func TestTable1Rows(t *testing.T) {
	res, err := RunPassive(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := Table1Rows(res)
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	byToken := map[string]Table1Row{}
	for _, r := range rows {
		byToken[r.Agent.UserAgent] = r
	}
	// Measured column reproduces the paper's Table 1.
	checks := map[string]agents.TriState{
		"GPTBot":             agents.Yes,
		"CCBot":              agents.Yes,
		"ClaudeBot":          agents.Yes,
		"Amazonbot":          agents.Yes,
		"Applebot":           agents.Yes,
		"Meta-ExternalAgent": agents.Yes,
		"OAI-SearchBot":      agents.Yes,
		"ChatGPT-User":       agents.Yes, // resolved via the active study
		"Bytespider":         agents.No,
		"anthropic-ai":       agents.Unknown, // never visited
		"Google-Extended":    agents.Unknown, // virtual token
		"PerplexityBot":      agents.Unknown,
	}
	for tok, want := range checks {
		if got := byToken[tok].Measured; got != want {
			t.Errorf("%s measured = %v, want %v", tok, got, want)
		}
	}
	// Against the registry's recorded in-practice column.
	for _, r := range rows {
		if r.Agent.RespectsInPractice != r.Measured {
			t.Errorf("%s: measured %v disagrees with Table 1's %v",
				r.Agent.UserAgent, r.Measured, r.Agent.RespectsInPractice)
		}
	}
}

func TestActiveStudy(t *testing.T) {
	res, err := RunActive(context.Background(), 7, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Built-in assistants respect robots.txt (§5.2.2).
	for name, v := range res.BuiltinVerdicts {
		if v != Respected {
			t.Errorf("built-in %s verdict = %v, want respected", name, v)
		}
	}
	if len(res.BuiltinVerdicts) != 3 {
		t.Fatalf("builtin verdicts = %d, want 3", len(res.BuiltinVerdicts))
	}
	// 23 distinct crawlers after merging app observations.
	if res.DistinctCrawlers != 23 {
		t.Errorf("distinct crawlers = %d, want 23", res.DistinctCrawlers)
	}
	if res.AppsProbed != 60 {
		t.Errorf("apps probed = %d", res.AppsProbed)
	}
	// The behaviour mix: 1 respected, 1 buggy, 1 intermittent, 20 no-fetch.
	if res.Summary[Respected] != 1 {
		t.Errorf("respected = %d, want 1", res.Summary[Respected])
	}
	if res.Summary[BuggyRobotsFetch] != 1 {
		t.Errorf("buggy = %d, want 1", res.Summary[BuggyRobotsFetch])
	}
	if res.Summary[IntermittentRespect] != 1 {
		t.Errorf("intermittent = %d, want 1", res.Summary[IntermittentRespect])
	}
	if res.Summary[NotFetched] != 20 {
		t.Errorf("no-fetch = %d, want 20", res.Summary[NotFetched])
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPassive(ctx, 7); !errors.Is(err, context.Canceled) {
		t.Errorf("RunPassive on canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := RunActive(ctx, 7, 10); !errors.Is(err, context.Canceled) {
		t.Errorf("RunActive on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestEvidenceMergeAndClassify(t *testing.T) {
	a := Evidence{RobotsOK: 1}
	b := Evidence{Content: 2}
	m := a.Merge(b)
	if m.RobotsOK != 1 || m.Content != 2 {
		t.Fatalf("merge = %+v", m)
	}
	if !m.Observed() || (Evidence{}).Observed() {
		t.Fatal("Observed misreports")
	}
	cases := []struct {
		ev   Evidence
		want Verdict
	}{
		{Evidence{RobotsOK: 2}, Respected},
		{Evidence{RobotsOK: 1, Content: 3}, fetchedIgnored},
		{Evidence{RobotsBroken: 1, Content: 3}, BuggyRobotsFetch},
		{Evidence{Content: 1}, Anomalous},
		{Evidence{Content: 5}, NotFetched},
		{Evidence{}, notObserved},
	}
	for i, tc := range cases {
		if got := ClassifyEvidence(tc.ev); got != tc.want {
			t.Errorf("case %d = %v, want %v", i, got, tc.want)
		}
	}
}

func TestGenerateThirdParty(t *testing.T) {
	tps := generateThirdParty(3)
	if len(tps) != 23 {
		t.Fatalf("third-party crawlers = %d, want 23", len(tps))
	}
	seenDomains := map[string]bool{}
	seenIPs := map[string]bool{}
	for _, tp := range tps {
		if seenDomains[tp.Backend] {
			t.Errorf("duplicate backend %s", tp.Backend)
		}
		seenDomains[tp.Backend] = true
		if len(tp.IPs) == 0 {
			t.Errorf("%s has no IPs", tp.Backend)
		}
		for _, ip := range tp.IPs {
			if seenIPs[ip] {
				t.Errorf("IP %s shared across backends; would break clustering", ip)
			}
			seenIPs[ip] = true
		}
	}
	counts := map[crawler.Behavior]int{}
	for _, tp := range tps {
		counts[tp.Behavior]++
	}
	if counts[crawler.Compliant] != 1 || counts[crawler.BuggyFetch] != 1 ||
		counts[crawler.IntermittentFetch] != 1 || counts[crawler.NoFetch] != 20 {
		t.Fatalf("behaviour mix = %v", counts)
	}
	// Determinism.
	again := generateThirdParty(3)
	for i := range tps {
		if tps[i].Backend != again[i].Backend || len(tps[i].IPs) != len(again[i].IPs) {
			t.Fatal("third-party generation must be deterministic")
		}
	}
}

func TestCountClusters(t *testing.T) {
	obs := []observation{
		{backend: "a.example", ip: "1.1.1.1"},
		{backend: "a.example", ip: "1.1.1.2"},
		{backend: "b.example", ip: "2.2.2.1"},
		// c shares an IP with b: merged.
		{backend: "c.example", ip: "2.2.2.1"},
	}
	if got := countClusters(obs); got != 2 {
		t.Fatalf("clusters = %d, want 2", got)
	}
	if countClusters(nil) != 0 {
		t.Fatal("no observations → no clusters")
	}
}

func TestVerdictStringsAndRespect(t *testing.T) {
	all := []Verdict{notObserved, Respected, fetchedIgnored, NotFetched,
		BuggyRobotsFetch, IntermittentRespect, Anomalous, Verdict(99)}
	seen := map[string]bool{}
	for _, v := range all {
		s := v.String()
		if s == "" || (seen[s] && s != "unknown") {
			t.Errorf("verdict %d string %q", v, s)
		}
		seen[s] = true
	}
	if Respected.respects() != agents.Yes {
		t.Error("respected → Yes")
	}
	for _, v := range []Verdict{fetchedIgnored, NotFetched, BuggyRobotsFetch} {
		if v.respects() != agents.No {
			t.Errorf("%v → No", v)
		}
	}
	for _, v := range []Verdict{notObserved, Anomalous, IntermittentRespect} {
		if v.respects() != agents.Unknown {
			t.Errorf("%v → Unknown", v)
		}
	}
}

func TestCombineTriggers(t *testing.T) {
	r := triggerEvidence{robotsOK: true}
	c := triggerEvidence{content: true}
	ri := triggerEvidence{robotsOK: true, content: true}
	b := triggerEvidence{robotsBroken: true, content: true}
	cases := []struct {
		in   []triggerEvidence
		want Verdict
	}{
		{[]triggerEvidence{r, r, r}, Respected},
		{[]triggerEvidence{c, c}, NotFetched},
		{[]triggerEvidence{r, c, c}, IntermittentRespect},
		{[]triggerEvidence{ri, ri}, fetchedIgnored},
		{[]triggerEvidence{b, c}, BuggyRobotsFetch},
		{nil, notObserved},
	}
	for i, tc := range cases {
		if got := combineTriggers(tc.in); got != tc.want {
			t.Errorf("case %d = %v, want %v", i, got, tc.want)
		}
	}
}
