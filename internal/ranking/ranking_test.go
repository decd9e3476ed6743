package ranking

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
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
	months := defaultMonths()
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
		cfg.Months = defaultMonths()[:3]
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
	list, err := monthlyList(m, smallConfig(), defaultMonths()[0])
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
	month := defaultMonths()[5]
	l1, _ := monthlyList(m1, smallConfig(), month)
	l2, _ := monthlyList(m2, smallConfig(), month)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("lists diverge at %d: %q vs %q", i, l1[i], l2[i])
		}
	}
}

func TestMonthOutsideWindow(t *testing.T) {
	m, _ := NewModel(smallConfig())
	if _, err := monthlyList(m, smallConfig(), time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)); err == nil {
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
	for _, month := range defaultMonths() {
		l, err := monthlyList(m, cfg, month)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, l)
	}
	stable := stableTopK(lists, cfg.TopK)
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

	stableTier := stableTopK(lists, cfg.TopTier)
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
	months := defaultMonths()
	l1, _ := monthlyList(m, cfg, months[0])
	l2, _ := monthlyList(m, cfg, months[1])
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
	for _, month := range defaultMonths()[:4] {
		l, _ := monthlyList(m, cfg, month)
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
	for _, month := range defaultMonths() {
		l, _ := monthlyList(m, cfg, month)
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
	if got := stableTopK(nil, 10); got != nil {
		t.Fatal("no lists → nil")
	}
	lists := [][]string{{"a", "b"}, {"b", "c"}}
	got := stableTopK(lists, 10)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("intersection = %v, want [b]", got)
	}
	// k smaller than list length restricts the window.
	lists = [][]string{{"a", "b"}, {"a", "b"}}
	got = stableTopK(lists, 1)
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
	list, err := monthlyList(m, cfg, defaultMonths()[12])
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

// monthlyList generates the ranked list the model m, built from cfg,
// implies for the given month: the observation side of the
// construction, which the tests intersect with stableTopK. The first
// TopTier entries are the tier the paper calls "the very largest
// sites". Generation is deterministic in (seed, month).
func monthlyList(m *Model, cfg Config, month time.Time) ([]string, error) {
	cfg.fillDefaults()
	mi := -1
	for i, t := range cfg.Months {
		if t.Year() == month.Year() && t.Month() == month.Month() {
			mi = i
			break
		}
	}
	if mi < 0 {
		return nil, fmt.Errorf("ranking: month %s outside study window", month.Format("2006-01"))
	}
	rn := stats.NewRand(cfg.Seed).Fork(fmt.Sprintf("month-%d", mi))

	list := make([]string, 0, cfg.TopK)

	// Top tier: all stable-top domains plus a rotating fill from the
	// stable-rest population.
	fill := cfg.TopTier - len(m.stableTop)
	list = append(list, m.stableTop...)
	idx := rn.SampleWithoutReplacement(len(m.stableRest), fill)
	inTier := make(map[int]bool, fill)
	for _, i := range idx {
		list = append(list, m.stableRest[i])
		inTier[i] = true
	}
	rn.Shuffle(cfg.TopTier, func(i, j int) { list[i], list[j] = list[j], list[i] })

	// Remainder: the rest of the stable population, then churners active
	// this month until the list is full.
	for i, d := range m.stableRest {
		if !inTier[i] {
			list = append(list, d)
		}
	}
	added := make(map[string]bool, cfg.TopK-len(list))
	for _, d := range m.churners {
		if len(list) >= cfg.TopK {
			break
		}
		if m.skipMonth[d] == mi {
			continue
		}
		// Monthly presence: churners drop in and out.
		if rn.Bool(0.75) {
			list = append(list, d)
			added[d] = true
		}
	}
	// If presence sampling left slots open, fill from the remaining
	// churners (still deterministic, still absent in their skip month).
	for _, d := range m.churners {
		if len(list) >= cfg.TopK {
			break
		}
		if m.skipMonth[d] == mi || added[d] {
			continue
		}
		list = append(list, d)
	}
	if len(list) < cfg.TopK {
		return nil, fmt.Errorf("ranking: churner pool exhausted (%d < %d)", len(list), cfg.TopK)
	}
	tail := list[cfg.TopTier:]
	rn.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return list, nil
}

// stableTopK intersects the first k entries of every list and returns the
// domains present in all of them, sorted: the paper's Stable Top 100k /
// Stable Top 5k method, the oracle the constructed populations are
// checked against.
func stableTopK(lists [][]string, k int) []string {
	if len(lists) == 0 {
		return nil
	}
	counts := make(map[string]int)
	for _, list := range lists {
		n := k
		if n > len(list) {
			n = len(list)
		}
		seen := make(map[string]bool, n)
		for _, d := range list[:n] {
			if !seen[d] {
				seen[d] = true
				counts[d]++
			}
		}
	}
	var out []string
	for d, c := range counts {
		if c == len(lists) {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}
