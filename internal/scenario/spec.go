// Package scenario is a month-stepped simulator for counterfactual
// web-ecosystem experiments (§8 of the paper asks them as open
// questions): what if more sites adopted AI-restricting robots.txt, what
// if a new non-compliant crawler appeared mid-study, what if managed
// robots.txt services or active-blocking providers were more widely
// deployed?
//
// A Spec declares one such world: N sites whose policy-adoption
// schedules are drawn from the corpus-calibrated distributions, a
// crawler roster with per-company revisit cadences and mid-run
// mutations, managed-robots uptake, and an active-blocking rollout. The
// engine (RunTiered) composes the existing substrates over a virtual
// monthly clock — a hot site-month is a real instrumented webserver on
// an in-memory netsim network visited by crawlers speaking real HTTP, a
// cold one replays the log effects of waves compiled that same way, and
// all metrics derive from the server logs alone, exactly like
// internal/measure. Runs are deterministic: identical specs are
// bit-identical at any worker count and any hot-cohort size
// (TestTieredParityWithFull, TestResultDigests). RunTiered's doc
// describes the two tiers and the order workers claim sites in. A hot
// site's crawlers fetch each (host, target) through netsim.Get, which
// calls the worker's farm in-process, so the hot tier dials no conn
// (TestFarmAddressesRefuseDials); a pinned site's log starts at the
// capacity its run's waves fill, so it never regrows.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/stats"
)

// defaultStart is the first month of the simulated window, aligned with
// the paper's first corpus snapshot (October 2022) so user-agent
// announcement dates fall inside the run.
const defaultStart = "2022-10"

// maxMonths bounds a run's virtual duration (ten years).
const maxMonths = 120

// maxSites bounds a run's site count at 10^8, the largest scale the
// engine is meant for; far larger counts die allocating per-site state
// instead of failing validation.
const maxSites = 100_000_000

// maxRoster bounds a roster's entries: the tiered engine keys a cold
// site-month by its limit bucket, a byte that counts roster entries.
const maxRoster = 255

// Spec declares one counterfactual world. The zero value is not
// runnable; fill the fields or start from a builtin (Builtins) and
// override. Specs serialize to JSON for cmd/scenario.
type Spec struct {
	// Name identifies the scenario in output and cache keys.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Seed drives all randomness; 0 means stats.DefaultSeed.
	Seed int64 `json:"seed,omitempty"`
	// Sites is the ecosystem size (hundreds to thousands).
	Sites int `json:"sites"`
	// Months is the virtual duration in monthly ticks.
	Months int `json:"months"`
	// Start is the first virtual month, "YYYY-MM"; empty means
	// defaultStart.
	Start string `json:"start,omitempty"`
	// Adoption schedules when sites adopt AI-restricting robots.txt.
	Adoption AdoptionSpec `json:"adoption"`
	// Crawlers is the fleet roster, including mid-run arrivals.
	Crawlers []CrawlerSpec `json:"crawlers"`
	// Manager controls managed-robots.txt service uptake.
	Manager ManagerSpec `json:"manager"`
	// Blocking controls the active-blocking provider rollout.
	Blocking BlockingSpec `json:"blocking"`
	// MaxPagesPerCrawl bounds each crawl wave; 0 means 6.
	MaxPagesPerCrawl int `json:"max_pages_per_crawl,omitempty"`
}

// Adoption curve sources.
const (
	// SourceCorpusOther draws adoption times from the corpus curve for
	// non-top-tier sites (the default).
	SourceCorpusOther = "corpus-other"
	// sourceCorpusTop5k draws from the Stable Top 5k curve.
	sourceCorpusTop5k = "corpus-top5k"
	// sourceMeasurement replays the paper's §5.1 measurement deployment:
	// every site adopts at month 0, alternating the wildcard-disallow and
	// per-agent-disallow policies of the two instrumented sites.
	sourceMeasurement = "measurement"
	// sourceNone disables adoption (no site ever restricts).
	sourceNone = "none"
)

// AdoptionSpec schedules robots.txt adoption across the site population.
type AdoptionSpec struct {
	// Source selects a named curve (see the Source constants); empty
	// means SourceCorpusOther. Ignored when Curve is set.
	Source string `json:"source,omitempty"`
	// Curve, when non-empty, is the cumulative fraction of sites that
	// have adopted by each month index. Values must be non-decreasing in
	// [0, 1]; shorter curves hold their last value.
	Curve []float64 `json:"curve,omitempty"`
	// Multiplier scales the curve (capped at 0.98), expressing "what if
	// k× more sites adopted"; 0 means 1.
	Multiplier float64 `json:"multiplier,omitempty"`
	// PerAgentShare is the fraction of adopters that write per-agent
	// rule lists (whose coverage decays as new agents are announced)
	// rather than a blanket wildcard disallow; 0 means 0.85.
	PerAgentShare float64 `json:"per_agent_share,omitempty"`
}

// CrawlerSpec is one fleet member.
type CrawlerSpec struct {
	// Token is the product token (robots.txt user agent).
	Token string `json:"token"`
	// Behavior is the robots.txt compliance mode: "compliant",
	// "fetch-ignore", "no-fetch", "buggy-fetch", or "intermittent-fetch".
	// Empty means "compliant".
	Behavior string `json:"behavior,omitempty"`
	// SourceIP overrides the dial address; empty derives it from the
	// agent registry (or synthesizes a stable pool for unknown tokens).
	SourceIP string `json:"source_ip,omitempty"`
	// Cadence is the revisit interval in months; 0 means 1 (monthly).
	Cadence int `json:"cadence_months,omitempty"`
	// FirstMonth is when the crawler joins the fleet (0 = from the
	// start). Rogue-crawler counterfactuals set this mid-run.
	FirstMonth int `json:"first_month,omitempty"`
	// LastMonth is the final month the crawler is active; 0 means it
	// stays until the end.
	LastMonth int `json:"last_month,omitempty"`
	// SinglePage fetches one content page per visit (assistant style)
	// instead of a breadth-first crawl.
	SinglePage bool `json:"single_page,omitempty"`
	// MaxVisits bounds total visits per site; 0 means unlimited.
	MaxVisits int `json:"max_visits,omitempty"`
	// SiteLimit restricts the crawler to the first k sites; 0 means all.
	SiteLimit int `json:"site_limit,omitempty"`
}

// ManagerSpec controls managed robots.txt service uptake (§2.2, §8.1).
type ManagerSpec struct {
	// Uptake is the fraction of adopting sites that delegate their rule
	// list to a managed service, which tracks agent announcements
	// automatically; the rest freeze a hand-written list at adoption.
	Uptake float64 `json:"uptake,omitempty"`
}

// BlockingSpec controls the active-blocking provider rollout (§6).
type BlockingSpec struct {
	// Share is the fraction of sites behind the blocking provider.
	Share float64 `json:"share,omitempty"`
	// StartMonth is when the provider enables AI blocking.
	StartMonth int `json:"start_month,omitempty"`
	// RefreshMonthly updates the provider's user-agent rule list every
	// month as agents are announced; false freezes it at StartMonth,
	// reproducing the stale-rule-list gap.
	RefreshMonthly bool `json:"refresh_monthly,omitempty"`
}

// behaviorNames maps spec strings to crawler behaviours, using the same
// names crawler.Behavior.String produces.
var behaviorNames = map[string]crawler.Behavior{
	"":                   crawler.Compliant,
	"compliant":          crawler.Compliant,
	"fetch-ignore":       crawler.FetchIgnore,
	"no-fetch":           crawler.NoFetch,
	"buggy-fetch":        crawler.BuggyFetch,
	"intermittent-fetch": crawler.IntermittentFetch,
}

// parseSpec decodes and validates a JSON spec. Unknown fields are
// rejected so typos in counterfactual knobs fail loudly.
func parseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and validates a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return parseSpec(data)
}

// Validate checks the spec for runnability.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if s.Sites < 1 || s.Sites > maxSites {
		return fmt.Errorf("scenario %s: sites must be in [1, %d]", s.Name, maxSites)
	}
	if s.Months < 1 || s.Months > maxMonths {
		return fmt.Errorf("scenario %s: months must be in [1, %d]", s.Name, maxMonths)
	}
	if s.Start != "" {
		if _, err := time.Parse("2006-01", s.Start); err != nil {
			return fmt.Errorf("scenario %s: bad start %q (want YYYY-MM)", s.Name, s.Start)
		}
	}
	if len(s.Crawlers) == 0 {
		return fmt.Errorf("scenario %s: roster is empty", s.Name)
	}
	if len(s.Crawlers) > maxRoster {
		return fmt.Errorf("scenario %s: at most %d roster entries are supported", s.Name, maxRoster)
	}
	for i, c := range s.Crawlers {
		if c.Token == "" {
			return fmt.Errorf("scenario %s: crawler %d has no token", s.Name, i)
		}
		if _, ok := behaviorNames[c.Behavior]; !ok {
			return fmt.Errorf("scenario %s: crawler %s: unknown behavior %q",
				s.Name, c.Token, c.Behavior)
		}
		if c.Cadence < 0 || c.FirstMonth < 0 || c.LastMonth < 0 ||
			c.MaxVisits < 0 || c.SiteLimit < 0 {
			return fmt.Errorf("scenario %s: crawler %s: negative schedule field", s.Name, c.Token)
		}
		if c.LastMonth != 0 && c.LastMonth < c.FirstMonth {
			return fmt.Errorf("scenario %s: crawler %s: last_month %d precedes first_month %d",
				s.Name, c.Token, c.LastMonth, c.FirstMonth)
		}
		if c.FirstMonth >= s.Months {
			return fmt.Errorf("scenario %s: crawler %s: first_month %d is beyond the %d-month run",
				s.Name, c.Token, c.FirstMonth, s.Months)
		}
	}
	switch s.Adoption.Source {
	case "", SourceCorpusOther, sourceCorpusTop5k:
	case sourceMeasurement, sourceNone:
		if len(s.Adoption.Curve) > 0 {
			return fmt.Errorf("scenario %s: adoption source %q pins the schedule structurally and cannot combine with an explicit curve",
				s.Name, s.Adoption.Source)
		}
	default:
		return fmt.Errorf("scenario %s: unknown adoption source %q", s.Name, s.Adoption.Source)
	}
	prev := 0.0
	for i, v := range s.Adoption.Curve {
		if v < 0 || v > 1 || v < prev {
			return fmt.Errorf("scenario %s: adoption curve must be non-decreasing in [0,1] (index %d)", s.Name, i)
		}
		prev = v
	}
	for name, v := range map[string]float64{
		"adoption.multiplier":      s.Adoption.Multiplier,
		"adoption.per_agent_share": s.Adoption.PerAgentShare,
		"manager.uptake":           s.Manager.Uptake,
		"blocking.share":           s.Blocking.Share,
	} {
		if v < 0 || (v > 1 && name != "adoption.multiplier") {
			return fmt.Errorf("scenario %s: %s out of range", s.Name, name)
		}
	}
	if s.Blocking.StartMonth < 0 || s.MaxPagesPerCrawl < 0 {
		return fmt.Errorf("scenario %s: negative field", s.Name)
	}
	if s.Blocking.Share > 0 && s.Blocking.StartMonth >= s.Months {
		return fmt.Errorf("scenario %s: blocking start_month %d is beyond the %d-month run",
			s.Name, s.Blocking.StartMonth, s.Months)
	}
	return nil
}

// CacheKey returns a deterministic identity string covering every field,
// used by the core Env substrate cache.
func (s Spec) CacheKey() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// withDefaults returns a copy with zero-value knobs resolved.
func (s Spec) withDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = stats.DefaultSeed
	}
	if s.Start == "" {
		s.Start = defaultStart
	}
	if s.Adoption.Source == "" {
		s.Adoption.Source = SourceCorpusOther
	}
	if s.Adoption.Multiplier == 0 {
		s.Adoption.Multiplier = 1
	}
	if s.Adoption.PerAgentShare == 0 {
		s.Adoption.PerAgentShare = 0.85
	}
	if s.MaxPagesPerCrawl == 0 {
		s.MaxPagesPerCrawl = 6
	}
	out := make([]CrawlerSpec, len(s.Crawlers))
	for i, c := range s.Crawlers {
		if c.Behavior == "" {
			c.Behavior = "compliant"
		}
		if c.Cadence == 0 {
			c.Cadence = 1
		}
		if c.LastMonth == 0 {
			c.LastMonth = s.Months - 1
		}
		out[i] = c
	}
	s.Crawlers = out
	return s
}

// startDate parses the (defaulted) start month.
func (s Spec) startDate() time.Time {
	t, err := time.Parse("2006-01", s.Start)
	if err != nil {
		t, _ = time.Parse("2006-01", defaultStart)
	}
	return t
}

// monthlyCurve resolves the adoption schedule to one cumulative fraction
// per simulated month.
func (s Spec) monthlyCurve() []float64 {
	out := make([]float64, s.Months)
	switch {
	case len(s.Adoption.Curve) > 0:
		last := 0.0
		for m := range out {
			if m < len(s.Adoption.Curve) {
				last = s.Adoption.Curve[m]
			}
			out[m] = last
		}
	case s.Adoption.Source == sourceNone || s.Adoption.Source == sourceMeasurement:
		// Handled structurally by the engine; the curve is unused.
		return out
	default:
		// Resample the snapshot-indexed corpus curve onto the monthly
		// clock: each month holds the most recent snapshot's value.
		curve := corpus.AdoptionCurve(s.Adoption.Source == sourceCorpusTop5k)
		start := s.startDate()
		for m := range out {
			date := start.AddDate(0, m, 0)
			v := 0.0
			for i, snap := range corpus.Snapshots {
				if !snap.Date.After(date) {
					v = curve[i]
				}
			}
			out[m] = v
		}
	}
	mult := s.Adoption.Multiplier
	if mult == 0 {
		mult = 1
	}
	for m, v := range out {
		v *= mult
		if v > 0.98 {
			v = 0.98
		}
		out[m] = v
	}
	return out
}

// defaultFleet returns the crawler roster of the paper's observed world:
// the eight crawlers the passive study saw visit unprompted (§5.2.1),
// with their measured behaviours and plausible per-company cadences.
func defaultFleet() []CrawlerSpec {
	return []CrawlerSpec{
		{Token: "Amazonbot", Behavior: "compliant", Cadence: 2},
		{Token: "Applebot", Behavior: "compliant", Cadence: 3},
		{Token: "Bytespider", Behavior: "fetch-ignore", Cadence: 1},
		{Token: "CCBot", Behavior: "compliant", Cadence: 2},
		{Token: "ClaudeBot", Behavior: "compliant", Cadence: 1},
		{Token: "GPTBot", Behavior: "compliant", Cadence: 1},
		{Token: "Meta-ExternalAgent", Behavior: "compliant", Cadence: 2},
		{Token: "OAI-SearchBot", Behavior: "compliant", Cadence: 3},
	}
}

// Baseline replays the paper's observed §5.1 world: the two instrumented
// measurement sites (wildcard-disallow and per-agent-disallow), one
// crawl wave per passive visitor, and ChatGPT-User's single anomalous
// content visit. Classifying its simulated logs must reproduce the seed
// measurement's Table 1 verdict classes.
func Baseline(seed int64) Spec {
	fleet := defaultFleet()
	for i := range fleet {
		// One wave each, as in the six-month passive study's evidence.
		fleet[i].Cadence = 6
		fleet[i].MaxVisits = 1
	}
	fleet = append(fleet, CrawlerSpec{
		Token:      "ChatGPT-User",
		Behavior:   "no-fetch",
		SinglePage: true,
		MaxVisits:  1,
		SiteLimit:  1,
		Cadence:    6,
	})
	return Spec{
		Name:        "baseline-replay",
		Description: "the paper's observed world: two instrumented sites, the passive-study fleet",
		Seed:        seed,
		Sites:       2,
		Months:      6,
		Adoption:    AdoptionSpec{Source: sourceMeasurement},
		Crawlers:    fleet,
		// The passive study's crawlers walked the whole measurement site.
		MaxPagesPerCrawl: 32,
	}
}

// Observed is the observed-world counterfactual anchor: adoption follows
// the corpus-calibrated curve, the fleet is the passive-study roster.
func Observed(seed int64, sites, months int) Spec {
	return Spec{
		Name:        "observed-world",
		Description: "corpus-calibrated adoption, the observed crawler fleet",
		Seed:        seed,
		Sites:       sites,
		Months:      months,
		Adoption:    AdoptionSpec{Source: SourceCorpusOther},
		Crawlers:    defaultFleet(),
	}
}

// HighAdoption asks §8's first what-if: the same world with a k× steeper
// policy-adoption curve.
func HighAdoption(seed int64, sites, months int, multiplier float64) Spec {
	s := Observed(seed, sites, months)
	s.Name = "high-adoption"
	s.Description = fmt.Sprintf("counterfactual: %gx robots.txt adoption", multiplier)
	s.Adoption.Multiplier = multiplier
	return s
}

// RogueCrawler adds a Bytespider-like non-complier that appears mid-run,
// too new for any rule list, with an aggressive monthly cadence.
func RogueCrawler(seed int64, sites, months int) Spec {
	s := Observed(seed, sites, months)
	s.Name = "rogue-crawler"
	s.Description = "counterfactual: an undocumented non-compliant crawler joins mid-run"
	s.Blocking = BlockingSpec{Share: 0.3, StartMonth: months / 4, RefreshMonthly: true}
	s.Crawlers = append(s.Crawlers, CrawlerSpec{
		Token:      "Scrapezilla",
		Behavior:   "no-fetch",
		Cadence:    1,
		FirstMonth: months / 2,
	})
	return s
}

// ManagedUptake sweeps managed-robots.txt service adoption: at uptake u,
// that fraction of adopting sites track announcements automatically
// while the rest freeze hand-written lists.
func ManagedUptake(seed int64, sites, months int, uptake float64) Spec {
	s := Observed(seed, sites, months)
	s.Name = fmt.Sprintf("managed-uptake-%02.0f", 100*uptake)
	s.Description = fmt.Sprintf("counterfactual: %.0f%% of adopters use a managed robots.txt service", 100*uptake)
	// Hand-written per-agent lists everywhere makes the coverage gap the
	// headline metric.
	s.Adoption.PerAgentShare = 1
	s.Manager.Uptake = uptake
	// The gap metric needs no traffic; a lean fleet keeps sweeps cheap.
	s.Crawlers = []CrawlerSpec{
		{Token: "GPTBot", Behavior: "compliant", Cadence: 3},
		{Token: "Bytespider", Behavior: "fetch-ignore", Cadence: 3},
	}
	return s
}

// Builtins returns the named built-in specs cmd/scenario exposes, in
// stable order. Sizes here are standalone-friendly defaults; the core
// experiments scale them with the engine config.
func Builtins() []Spec {
	seed := stats.DefaultSeed
	return []Spec{
		Baseline(seed),
		Observed(seed, 120, 24),
		HighAdoption(seed, 120, 24, 4),
		RogueCrawler(seed, 120, 24),
		ManagedUptake(seed, 120, 24, 0.5),
	}
}

// BuiltinByName resolves one built-in spec.
func BuiltinByName(name string) (Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
