// Package ranking models Tranco-style monthly top-site rankings with
// list churn, and implements the paper's Stable Top K methodology (§3.1):
// selecting the sites that appear in every monthly top-100k list across
// the two-year study window, to avoid results being affected by churn [96].
//
// The model is constructive: the populations that the paper measures
// (2,551 sites always in the top 5k; 51,605 always in the top 100k) are
// built in exactly, while the remaining list slots churn month to month
// the way real rankings do. The tests generate those monthly lists and
// intersect them the same way the paper intersects real Tranco lists,
// and verify that recovers the constructed populations.
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
	// Months are the list dates; defaults to defaultMonths().
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

// defaultMonths returns the paper's study window: every month from
// October 2022 through October 2024 inclusive (25 lists).
func defaultMonths() []time.Time {
	var out []time.Time
	for t := time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC); !t.After(time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)); t = t.AddDate(0, 1, 0) {
		out = append(out, t)
	}
	return out
}

func (c *Config) fillDefaults() {
	if len(c.Months) == 0 {
		c.Months = defaultMonths()
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
	m := &Model{skipMonth: make(map[string]int)}

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
