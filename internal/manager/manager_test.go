package manager

import (
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/robots"
)

func date(y int, m time.Month) time.Time {
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

func TestBlockedAgentsAnnouncementGated(t *testing.T) {
	m := Manager{Policy: BlockAllAI}
	early := m.BlockedAgents(date(2022, time.October))
	late := m.BlockedAgents(date(2024, time.October))
	if len(early) >= len(late) {
		t.Fatalf("agent list must grow: %d early vs %d late", len(early), len(late))
	}
	has := func(list []string, ua string) bool {
		for _, x := range list {
			if x == ua {
				return true
			}
		}
		return false
	}
	if has(early, "GPTBot") {
		t.Error("GPTBot was not announced in Oct 2022")
	}
	if !has(late, "GPTBot") || !has(late, "ClaudeBot") {
		t.Error("late list must include post-announcement agents")
	}
}

func TestPolicyClasses(t *testing.T) {
	now := date(2024, time.October)
	dataOnly := Manager{Policy: blockAIData}.BlockedAgents(now)
	for _, ua := range dataOnly {
		if ua == "ChatGPT-User" || ua == "OAI-SearchBot" {
			t.Errorf("data-only policy must not block %s", ua)
		}
	}
	all := Manager{Policy: BlockAllAI}.BlockedAgents(now)
	if len(all) <= len(dataOnly) {
		t.Error("block-all must cover more agents than data-only")
	}
}

func TestKeepSearchIndexing(t *testing.T) {
	now := date(2024, time.October)
	m := Manager{Policy: BlockAllAI, KeepSearchIndexing: true}
	blocked := m.BlockedAgents(now)
	for _, ua := range blocked {
		if ua == "Applebot" || ua == "Amazonbot" || ua == "OAI-SearchBot" {
			t.Errorf("search-preserving policy must spare %s", ua)
		}
	}
	// Virtual control tokens stay blocked: that is the §6.2 mechanism for
	// opting out of training without losing indexing.
	found := false
	for _, ua := range blocked {
		if ua == "Google-Extended" {
			found = true
		}
	}
	if !found {
		t.Error("Google-Extended must be blocked to opt out of training")
	}
}

func TestRenderParsesAndBlocks(t *testing.T) {
	m := Manager{Policy: BlockAllAI, BaseDisallows: []string{"/admin/"}}
	body := m.Render(date(2024, time.October))
	rb := robots.ParseString(body)
	if rb.HasMistakes() {
		t.Fatalf("managed robots.txt must lint clean: %v", rb.Warnings)
	}
	if rb.Allowed("GPTBot", "/art/piece.png") {
		t.Error("managed file must block GPTBot")
	}
	if !rb.Allowed("Googlebot", "/art/piece.png") {
		t.Error("non-AI crawler must pass")
	}
	if rb.Allowed("Googlebot", "/admin/panel") {
		t.Error("base disallows must be kept")
	}
}

func TestRenderEmptyPolicy(t *testing.T) {
	body := Manager{}.Render(date(2024, time.January))
	rb := robots.ParseString(body)
	if !rb.Allowed("GPTBot", "/x") {
		t.Error("empty policy blocks nothing")
	}
}

func TestMaintenanceGapGrows(t *testing.T) {
	var dates []time.Time
	for _, s := range corpus.Snapshots {
		dates = append(dates, s.Date)
	}
	// Freeze a thorough list right after the GPTBot announcement.
	covs := MaintenanceGap(BlockAllAI, date(2023, time.October), dates)
	if len(covs) != len(dates) {
		t.Fatalf("coverage points = %d", len(covs))
	}
	// Before the freeze date the static list is complete.
	if covs[5].Gap() != 0 {
		t.Errorf("gap at freeze time = %.2f, want 0", covs[5].Gap())
	}
	// By Oct 2024 the static list misses the agents announced since
	// (ClaudeBot, Applebot-Extended, Meta-ExternalAgent, …).
	last := covs[len(covs)-1]
	if last.Gap() <= 0.10 {
		t.Errorf("end gap = %.2f, want >10%% of agents missed", last.Gap())
	}
	if last.ManagedCovered != last.Announced {
		t.Error("the managed list never falls behind")
	}
	// Gap is non-decreasing after the freeze.
	for i := 6; i < len(covs); i++ {
		if covs[i].Gap()+1e-9 < covs[i-1].Gap() {
			t.Errorf("gap decreased at %s", covs[i].Date.Format("2006-01"))
		}
	}
}

func TestGapSeries(t *testing.T) {
	dates := []time.Time{date(2023, time.October), date(2024, time.October)}
	s := GapSeries(MaintenanceGap(BlockAllAI, date(2023, time.October), dates))
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[1].Value <= s.Points[0].Value {
		t.Error("gap series must grow")
	}
}

func TestAgentsAnnouncedBetween(t *testing.T) {
	newAgents := AgentsAnnouncedBetween(date(2023, time.October), date(2024, time.October))
	if len(newAgents) == 0 {
		t.Fatal("agents were announced in that window")
	}
	for i := 1; i < len(newAgents); i++ {
		if newAgents[i].Announced.Before(newAgents[i-1].Announced) {
			t.Fatal("must be sorted by announcement date")
		}
	}
	for _, a := range newAgents {
		if !a.Announced.After(date(2023, time.October)) {
			t.Errorf("%s announced %v, outside window", a.UserAgent, a.Announced)
		}
	}
}

func TestCoverageGapZeroDivision(t *testing.T) {
	c := Coverage{}
	if c.Gap() != 0 {
		t.Fatal("empty coverage gap must be 0")
	}
}
