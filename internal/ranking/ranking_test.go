package ranking

import (
	"testing"
	"time"
)

func smallConfig() Config {
	return Config{
		TopK:               1000,
		TopTier:            50,
		StableCount:        520,
		StableTopTierCount: 26,
		Seed:               7,
	}
}

func TestDefaultMonths(t *testing.T) {
	months := DefaultMonths()
	if len(months) != 25 {
		t.Fatalf("months = %d, want 25 (Oct 2022 – Oct 2024)", len(months))
	}
	if months[0] != time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC) {
		t.Fatalf("first month = %v", months[0])
	}
	if months[24] != time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC) {
		t.Fatalf("last month = %v", months[24])
	}
}

func TestModelInvalidConfigs(t *testing.T) {
	bad := []Config{
		{TopK: 100, TopTier: 50, StableCount: 90, StableTopTierCount: 60}, // tier overflow
		{TopK: 100, TopTier: 50, StableCount: 200, StableTopTierCount: 10},
		{TopK: 100, TopTier: 50, StableCount: 20, StableTopTierCount: 30},
	}
	for i, cfg := range bad {
		cfg.Seed = 1
		cfg.Months = DefaultMonths()[:3]
		if _, err := NewModel(cfg); err == nil {
			t.Errorf("config %d must be rejected", i)
		}
	}
}

func TestMonthlyListShape(t *testing.T) {
	m, err := NewModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	list, err := m.MonthlyList(DefaultMonths()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1000 {
		t.Fatalf("list size = %d", len(list))
	}
	seen := map[string]bool{}
	for _, d := range list {
		if seen[d] {
			t.Fatalf("duplicate domain %q in list", d)
		}
		seen[d] = true
	}
}

func TestMonthlyListDeterministic(t *testing.T) {
	m1, _ := NewModel(smallConfig())
	m2, _ := NewModel(smallConfig())
	month := DefaultMonths()[5]
	l1, _ := m1.MonthlyList(month)
	l2, _ := m2.MonthlyList(month)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("lists diverge at %d: %q vs %q", i, l1[i], l2[i])
		}
	}
}

func TestMonthOutsideWindow(t *testing.T) {
	m, _ := NewModel(smallConfig())
	if _, err := m.MonthlyList(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)); err == nil {
		t.Fatal("month outside the window must error")
	}
}

// The heart of §3.1: intersecting the monthly lists recovers exactly the
// constructed stable populations.
func TestStableTopKRecoversConstruction(t *testing.T) {
	cfg := smallConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]string
	for _, month := range DefaultMonths() {
		l, err := m.MonthlyList(month)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, l)
	}
	stable := StableTopK(lists, cfg.TopK)
	if len(stable) != cfg.StableCount {
		t.Fatalf("stable top %d = %d domains, want %d",
			cfg.TopK, len(stable), cfg.StableCount)
	}
	wantStable := m.StableDomains()
	for i := range stable {
		if stable[i] != wantStable[i] {
			t.Fatalf("stable set mismatch at %d: %q vs %q", i, stable[i], wantStable[i])
		}
	}

	stableTier := StableTopK(lists, cfg.TopTier)
	if len(stableTier) != cfg.StableTopTierCount {
		t.Fatalf("stable top tier = %d, want %d", len(stableTier), cfg.StableTopTierCount)
	}
	wantTier := m.StableTopTier()
	for i := range stableTier {
		if stableTier[i] != wantTier[i] {
			t.Fatalf("stable tier mismatch at %d", i)
		}
	}
}

func TestChurnExists(t *testing.T) {
	cfg := smallConfig()
	m, _ := NewModel(cfg)
	months := DefaultMonths()
	l1, _ := m.MonthlyList(months[0])
	l2, _ := m.MonthlyList(months[1])
	set1 := map[string]bool{}
	for _, d := range l1 {
		set1[d] = true
	}
	var missing int
	for _, d := range l2 {
		if !set1[d] {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("consecutive months must churn some list entries")
	}
	if missing > cfg.TopK-cfg.StableCount {
		t.Fatalf("churn %d exceeds open slots", missing)
	}
}

func TestRequiredStableIncluded(t *testing.T) {
	cfg := smallConfig()
	cfg.RequiredStable = []string{"vox.com", "sbnation.com", "wired.example"}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stable := map[string]bool{}
	for _, d := range m.StableDomains() {
		stable[d] = true
	}
	for _, d := range cfg.RequiredStable {
		if !stable[d] {
			t.Errorf("required domain %q not in stable set", d)
		}
	}
	// And they really appear in every month's list.
	for _, month := range DefaultMonths()[:4] {
		l, _ := m.MonthlyList(month)
		present := map[string]bool{}
		for _, d := range l {
			present[d] = true
		}
		for _, d := range cfg.RequiredStable {
			if !present[d] {
				t.Errorf("%s missing from %s list", d, month.Format("2006-01"))
			}
		}
	}
}

func TestStableTopTierAlwaysInTier(t *testing.T) {
	cfg := smallConfig()
	m, _ := NewModel(cfg)
	tier := map[string]bool{}
	for _, d := range m.StableTopTier() {
		tier[d] = true
	}
	for _, month := range DefaultMonths() {
		l, _ := m.MonthlyList(month)
		inTier := map[string]bool{}
		for _, d := range l[:cfg.TopTier] {
			inTier[d] = true
		}
		for d := range tier {
			if !inTier[d] {
				t.Fatalf("stable-tier domain %q outside tier in %s", d, month.Format("2006-01"))
			}
		}
	}
}

func TestStableTopKEdgeCases(t *testing.T) {
	if got := StableTopK(nil, 10); got != nil {
		t.Fatal("no lists → nil")
	}
	lists := [][]string{{"a", "b"}, {"b", "c"}}
	got := StableTopK(lists, 10)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("intersection = %v, want [b]", got)
	}
	// k smaller than list length restricts the window.
	lists = [][]string{{"a", "b"}, {"a", "b"}}
	got = StableTopK(lists, 1)
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("k=1 intersection = %v, want [a]", got)
	}
}

func TestFullScaleConstructionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale model in -short mode")
	}
	cfg := Config{Seed: 42}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.StableDomains()); got != 51_605 {
		t.Fatalf("stable population = %d, want 51605", got)
	}
	if got := len(m.StableTopTier()); got != 2_551 {
		t.Fatalf("stable top-tier population = %d, want 2551", got)
	}
	list, err := m.MonthlyList(DefaultMonths()[12])
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 100_000 {
		t.Fatalf("monthly list = %d", len(list))
	}
}

func TestDomainNamesLookReal(t *testing.T) {
	m, _ := NewModel(smallConfig())
	for _, d := range m.StableDomains()[:20] {
		if len(d) < 5 {
			t.Errorf("domain %q too short", d)
		}
		dot := false
		for _, r := range d {
			if r == '.' {
				dot = true
			}
		}
		if !dot {
			t.Errorf("domain %q has no TLD", d)
		}
	}
}
