// Package ranking models Tranco-style monthly top-site rankings with
// list churn, and implements the paper's Stable Top K methodology (§3.1):
// selecting the sites that appear in every monthly top-100k list across
// the two-year study window, to avoid results being affected by churn [96].
//
// The model is constructive: the populations that the paper measures
// (2,551 sites always in the top 5k; 51,605 always in the top 100k) are
// built in exactly, while the remaining list slots churn month to month
// the way real rankings do. The StableTopK analysis function is honest
// methodology code — it intersects the generated lists the same way the
// paper intersects real Tranco lists, and the tests verify it recovers
// the constructed populations.
package ranking

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
)

// Config parameterizes the ranking model. Zero fields take the paper's
// values (scaled by Scale if set).
type Config struct {
	// Months are the list dates; defaults to DefaultMonths().
	Months []time.Time
	// TopK is the list length (paper: 100,000).
	TopK int
	// TopTier is the "very largest sites" cutoff (paper: 5,000).
	TopTier int
	// StableCount is how many domains appear in every monthly list
	// (paper: 51,605).
	StableCount int
	// StableTopTierCount is how many domains appear in the top tier of
	// every monthly list (paper: 2,551).
	StableTopTierCount int
	// RequiredStable lists domains that must be part of the stable
	// population (the corpus pins the Table 4 publisher domains here).
	RequiredStable []string
	// Seed drives all randomness.
	Seed int64
}

// DefaultMonths returns the paper's study window: every month from
// October 2022 through October 2024 inclusive (25 lists).
func DefaultMonths() []time.Time {
	var out []time.Time
	for t := time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC); !t.After(time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)); t = t.AddDate(0, 1, 0) {
		out = append(out, t)
	}
	return out
}

func (c *Config) fillDefaults() {
	if len(c.Months) == 0 {
		c.Months = DefaultMonths()
	}
	if c.TopK == 0 {
		c.TopK = 100_000
	}
	if c.TopTier == 0 {
		c.TopTier = 5_000
	}
	if c.StableCount == 0 {
		c.StableCount = 51_605
	}
	if c.StableTopTierCount == 0 {
		c.StableTopTierCount = 2_551
	}
	if c.Seed == 0 {
		c.Seed = stats.DefaultSeed
	}
}

// Model generates monthly ranked lists.
type Model struct {
	cfg Config
	// stableTop are always ranked within the top tier.
	stableTop []string
	// stableRest are always in the list, outside or inside the top tier.
	stableRest []string
	// churners appear in some months only; each skips at least one month.
	churners []string
	// skipMonth[domain] is the month index the churner is forced to miss.
	skipMonth map[string]int
}

// NewModel builds a ranking model from cfg.
func NewModel(cfg Config) (*Model, error) {
	cfg.fillDefaults()
	if cfg.StableTopTierCount > cfg.TopTier {
		return nil, fmt.Errorf("ranking: stable top tier %d exceeds tier size %d",
			cfg.StableTopTierCount, cfg.TopTier)
	}
	if cfg.StableCount > cfg.TopK {
		return nil, fmt.Errorf("ranking: stable count %d exceeds list size %d",
			cfg.StableCount, cfg.TopK)
	}
	if cfg.StableTopTierCount > cfg.StableCount {
		return nil, fmt.Errorf("ranking: stable top tier %d exceeds stable count %d",
			cfg.StableTopTierCount, cfg.StableCount)
	}
	rn := stats.NewRand(cfg.Seed).Fork("ranking")
	m := &Model{cfg: cfg, skipMonth: make(map[string]int)}

	gen := newNameGen(rn.Fork("names"))
	used := make(map[string]bool, cfg.TopK*2)
	reserve := func(name string) string {
		for used[name] {
			name = gen.next()
		}
		used[name] = true
		return name
	}

	// Required domains join the stable populations first.
	req := append([]string(nil), cfg.RequiredStable...)
	sort.Strings(req)
	for _, d := range req {
		used[d] = true
	}
	nTop := cfg.StableTopTierCount
	nRest := cfg.StableCount - cfg.StableTopTierCount
	for i := 0; i < nTop; i++ {
		m.stableTop = append(m.stableTop, reserve(gen.next()))
	}
	for _, d := range req {
		m.stableRest = append(m.stableRest, d)
	}
	for len(m.stableRest) < nRest {
		m.stableRest = append(m.stableRest, reserve(gen.next()))
	}
	// Churner pool: enough distinct domains that monthly churn slots are
	// never exhausted; 1.6x the open slots mirrors real Tranco churn.
	openSlots := cfg.TopK - cfg.StableCount
	poolSize := openSlots + openSlots/2 + 1
	churnRand := rn.Fork("churn")
	for i := 0; i < poolSize; i++ {
		d := reserve(gen.next())
		m.churners = append(m.churners, d)
		m.skipMonth[d] = churnRand.Intn(len(cfg.Months))
	}
	return m, nil
}

// Config returns the effective configuration.
func (m *Model) Config() Config { return m.cfg }

// StableTopTier returns the domains constructed to appear in the top tier
// of every monthly list, sorted.
func (m *Model) StableTopTier() []string {
	out := append([]string(nil), m.stableTop...)
	sort.Strings(out)
	return out
}

// StableDomains returns all domains constructed to appear in every
// monthly list (top tier plus the rest), sorted.
func (m *Model) StableDomains() []string {
	out := make([]string, 0, len(m.stableTop)+len(m.stableRest))
	out = append(out, m.stableTop...)
	out = append(out, m.stableRest...)
	sort.Strings(out)
	return out
}

// MonthIndex returns the index of month in the configured window, or -1.
func (m *Model) MonthIndex(month time.Time) int {
	for i, t := range m.cfg.Months {
		if t.Year() == month.Year() && t.Month() == month.Month() {
			return i
		}
	}
	return -1
}

// MonthlyList generates the ranked list for the given month. The first
// TopTier entries are the tier the paper calls "the very largest sites".
// Generation is deterministic in (seed, month).
func (m *Model) MonthlyList(month time.Time) ([]string, error) {
	mi := m.MonthIndex(month)
	if mi < 0 {
		return nil, fmt.Errorf("ranking: month %s outside study window", month.Format("2006-01"))
	}
	rn := stats.NewRand(m.cfg.Seed).Fork(fmt.Sprintf("month-%d", mi))

	list := make([]string, 0, m.cfg.TopK)

	// Top tier: all stable-top domains plus a rotating fill from the
	// stable-rest population.
	fill := m.cfg.TopTier - len(m.stableTop)
	list = append(list, m.stableTop...)
	idx := rn.SampleWithoutReplacement(len(m.stableRest), fill)
	inTier := make(map[int]bool, fill)
	for _, i := range idx {
		list = append(list, m.stableRest[i])
		inTier[i] = true
	}
	rn.Shuffle(m.cfg.TopTier, func(i, j int) { list[i], list[j] = list[j], list[i] })

	// Remainder: the rest of the stable population, then churners active
	// this month until the list is full.
	for i, d := range m.stableRest {
		if !inTier[i] {
			list = append(list, d)
		}
	}
	added := make(map[string]bool, m.cfg.TopK-len(list))
	for _, d := range m.churners {
		if len(list) >= m.cfg.TopK {
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
		if len(list) >= m.cfg.TopK {
			break
		}
		if m.skipMonth[d] == mi || added[d] {
			continue
		}
		list = append(list, d)
	}
	if len(list) < m.cfg.TopK {
		return nil, fmt.Errorf("ranking: churner pool exhausted (%d < %d)", len(list), m.cfg.TopK)
	}
	tail := list[m.cfg.TopTier:]
	rn.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return list, nil
}

// StableTopK intersects the first k entries of every list and returns the
// domains present in all of them, sorted. This is the paper's Stable Top
// 100k / Stable Top 5k construction and works on any ranked lists.
func StableTopK(lists [][]string, k int) []string {
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

// nameGen produces deterministic, realistic-looking domain names.
type nameGen struct {
	rn *stats.Rand
	n  int
}

var (
	nameParts1 = []string{
		"news", "tech", "art", "shop", "blog", "game", "data", "web", "cloud",
		"media", "photo", "travel", "food", "music", "sport", "film", "design",
		"craft", "pixel", "digital", "global", "daily", "metro", "prime",
		"nova", "vertex", "quantum", "stellar", "urban", "coastal",
	}
	nameParts2 = []string{
		"hub", "zone", "base", "land", "works", "press", "wire", "cast",
		"space", "port", "point", "nest", "forge", "lab", "deck", "dock",
		"field", "gate", "grid", "line", "mart", "path", "peak", "ridge",
		"vault", "verse", "view", "wave", "well", "yard",
	}
	nameTLDs = []string{".com", ".net", ".org", ".io", ".co", ".info"}
)

func newNameGen(rn *stats.Rand) *nameGen { return &nameGen{rn: rn} }

func (g *nameGen) next() string {
	g.n++
	p1 := stats.Pick(g.rn, nameParts1)
	p2 := stats.Pick(g.rn, nameParts2)
	tld := stats.Pick(g.rn, nameTLDs)
	if g.n <= len(nameParts1)*len(nameParts2) {
		return p1 + p2 + tld
	}
	return fmt.Sprintf("%s%s%d%s", p1, p2, g.n, tld)
}
