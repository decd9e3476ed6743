// Package corpus is the Common-Crawl-like substrate for the paper's §3
// longitudinal analysis: a deterministic, generative model of how the
// robots.txt files of the Stable Top 100k sites evolved across fifteen
// snapshots from October 2022 to October 2024.
//
// The original study downloads historic robots.txt files from Common
// Crawl; that archive is not reachable from this environment, so the
// corpus synthesizes per-site robots.txt timelines whose event structure
// is calibrated to everything the paper reports: the adoption surge after
// OpenAI announced GPTBot (Aug 2023), the EU-AI-Act uptick (Aug 2024),
// publisher licensing-deal removals (§3.3, with the publishers and dates
// the paper names), the explicit-allow population of Table 4 (pinned
// domain by domain), authoring-mistake rates (~1%, §8.1), and blanket
// wildcard-disallow sites (<2%, §3.1). The longitudinal analysis then
// *parses the rendered files* — generation and measurement meet only at
// robots.txt text, exactly as they would on real Common Crawl data.
package corpus

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/agents"
	"repro/internal/par"
	"repro/internal/ranking"
	"repro/internal/stats"
)

// Population constants from the paper (§3.1).
const (
	// paperStablePopulation is the number of consistently popular sites.
	paperStablePopulation = 51_605
	// paperRobotsPopulation is the analysis population: stable sites with
	// robots.txt data in every snapshot.
	paperRobotsPopulation = 40_455
	// paperTop5kPopulation is the Stable Top 5k analysis population.
	paperTop5kPopulation = 2_551
	// paperOtherPopulation is the non-top-tier analysis population.
	paperOtherPopulation = paperRobotsPopulation - paperTop5kPopulation // 37,904
)

// Config parameterizes corpus generation.
type Config struct {
	// Seed drives all randomness; 0 means stats.DefaultSeed.
	Seed int64
	// Scale multiplies every population size; 0 means 1.0 (full scale:
	// 40,455 analysis sites). Use ~0.05 in unit tests.
	Scale float64
	// Workers bounds generation concurrency; 0 means GOMAXPROCS. The
	// generated corpus is bit-identical for every worker count: each
	// site's randomness comes from its own fork, and forks are derived
	// sequentially before the parallel sampling passes.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.Seed == 0 {
		c.Seed = stats.DefaultSeed
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// EventKind is the type of a robots.txt timeline event.
type EventKind int

const (
	// eventAddRestriction adds Disallow rules for a set of AI agents.
	eventAddRestriction EventKind = iota
	// eventRemoveRestriction deletes rules for a set of agents (nil set =
	// all AI agents), as after a licensing deal.
	eventRemoveRestriction
	// eventExplicitAllow adds an explicit "Allow: /" group for agents.
	eventExplicitAllow
)

// Event is one change to a site's robots.txt, effective from snapshot
// index Snap onward.
type Event struct {
	Snap   int
	Kind   EventKind
	Agents []string
	// Full marks add events that fully disallow (vs a partial path rule).
	Full bool
}

// Site is one member of the analysis population.
type Site struct {
	// Domain is the site's name; pinned publisher domains match Table 4.
	Domain string
	// Top5k marks membership in the Stable Top 5k tier.
	Top5k bool
	// Events is the site's robots.txt timeline, sorted by snapshot.
	Events []Event

	// Base-content traits, fixed for the whole window.
	wildcardFull  bool
	hasMistake    bool
	hasSitemap    bool
	hasCrawlDelay bool
	genericGroups int
}

// Corpus is the generated snapshot store.
type Corpus struct {
	cfg       Config
	sites     []*Site
	byDomain  map[string]*Site
	top5k     int
	nonRobots []string // stable sites without a robots.txt trait
}

// adoption targets: cumulative fraction of each tier that has adopted at
// least one AI restriction by snapshot index. Calibrated so that the
// *fully disallowed* fraction (≈85% of adopters) reproduces Figure 2:
// a surge at snapshot 5 (first post-GPTBot-announcement snapshot), then
// 12–14% for the Stable Top 5k and 8–10% for the rest by late 2024.
var (
	adoptionTop5k = []float64{
		0.006, 0.007, 0.009, 0.014, 0.024, 0.135, 0.148, 0.156,
		0.160, 0.163, 0.165, 0.167, 0.170, 0.173, 0.176,
	}
	adoptionOther = []float64{
		0.005, 0.006, 0.007, 0.010, 0.017, 0.080, 0.089, 0.096,
		0.100, 0.103, 0.106, 0.108, 0.112, 0.115, 0.118,
	}
)

// agentWeight is the probability that a site adopting (or updating) AI
// restrictions includes each user agent, before announcement gating.
// Calibrated against Figure 3's per-agent adoption ordering.
var agentWeight = map[string]float64{
	"GPTBot":             0.80,
	"CCBot":              0.52,
	"Google-Extended":    0.40,
	"ChatGPT-User":       0.34,
	"anthropic-ai":       0.30,
	"ClaudeBot":          0.27,
	"Claude-Web":         0.25,
	"PerplexityBot":      0.21,
	"Bytespider":         0.20,
	"omgili":             0.16,
	"FacebookBot":        0.12,
	"Amazonbot":          0.09,
	"cohere-ai":          0.13,
	"Diffbot":            0.08,
	"Applebot-Extended":  0.07,
	"Meta-ExternalAgent": 0.06,
	"Timpibot":           0.04,
	"YouBot":             0.05,
}

// AdoptionCurve returns a copy of the calibrated cumulative adoption
// fractions for the given tier, indexed by snapshot (see Snapshots for
// the dates). The scenario engine resamples these onto its monthly
// virtual clock so counterfactual worlds share the observed world's
// policy-adoption distribution.
func AdoptionCurve(top5k bool) []float64 {
	src := adoptionOther
	if top5k {
		src = adoptionTop5k
	}
	return append([]float64(nil), src...)
}

const (
	fullShare          = 0.85  // adopters that fully (vs partially) disallow
	updateProb         = 0.22  // chance an adopter revisits its list per snapshot
	updateAgentFactor  = 0.50  // weight multiplier when updating
	euActUpdateBoost   = 2.0   // update-probability boost from EUAIActIndex on
	removalProbOther   = 0.011 // background removal hazard per snapshot
	removalProbTop5k   = 0.012 // top-tier background removals (Fig 2 dip)
	removalStartIdx    = 6     // background removals begin after the surge
	top5kRemovalIdx    = 11    // the late-window top-tier dip
	wildcardFullProb   = 0.018 // §3.1: <2% blanket-disallow sites
	mistakeProb        = 0.012 // §8.1: ~1% of files have mistakes
	crawlDelayProb     = 0.08  // deprecated Crawl-Delay usage (Sun et al. [108])
	extraAllowSites    = 30    // §3.4 background explicit allows (non-GPTBot)
	dealPriorRestrict  = 5     // deal domains restricted since the surge
	table4PriorRestr   = 0.5   // chance a Table-4 site had a prior restriction
	backgroundAllowUA1 = "CCBot"
	backgroundAllowUA2 = "Amazonbot"
)

// New generates the corpus. Generation runs on a cfg.Workers-bounded
// pool with cancellation checked between shards; the output is
// bit-identical for every worker count because all randomness is drawn
// from per-site forks derived in a fixed sequential order.
func New(ctx context.Context, cfg Config) (*Corpus, error) {
	cfg.fillDefaults()
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("corpus: negative scale %v", cfg.Scale)
	}
	rn := stats.NewRand(cfg.Seed).Fork("corpus")

	scale := func(n int) int {
		v := int(float64(n)*cfg.Scale + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	nTop := scale(paperTop5kPopulation)
	nOther := scale(paperOtherPopulation)
	nNonRobots := scale(paperStablePopulation - paperRobotsPopulation)

	pinned := pinnedDomains()
	rcfg := ranking.Config{
		TopK:               scale(100_000),
		TopTier:            scale(5_000),
		StableCount:        scale(paperStablePopulation),
		StableTopTierCount: nTop,
		RequiredStable:     pinned,
		Seed:               cfg.Seed,
	}
	model, err := ranking.NewModel(rcfg)
	if err != nil {
		return nil, fmt.Errorf("corpus: ranking model: %w", err)
	}

	c := &Corpus{cfg: cfg, byDomain: make(map[string]*Site)}

	top5kSet := make(map[string]bool)
	for _, d := range model.StableTopTier() {
		top5kSet[d] = true
	}
	pinnedSet := make(map[string]bool, len(pinned))
	for _, d := range pinned {
		pinnedSet[d] = true
	}

	// Partition the stable population: all of the top tier plus the pinned
	// publisher domains carry the robots.txt trait; the rest split between
	// robots-trait sites and no-robots sites.
	var robotsOthers, rest []string
	for _, d := range model.StableDomains() {
		switch {
		case top5kSet[d]:
			// handled below
		case pinnedSet[d]:
			robotsOthers = append(robotsOthers, d)
		default:
			rest = append(rest, d)
		}
	}
	need := nOther - len(robotsOthers)
	if need < 0 {
		need = 0
	}
	if need > len(rest) {
		need = len(rest)
	}
	// rest is sorted (StableDomains is sorted); take a deterministic
	// random subset for the robots trait.
	pick := rn.Fork("robots-trait").SampleWithoutReplacement(len(rest), need)
	sort.Ints(pick)
	picked := make(map[int]bool, len(pick))
	for _, i := range pick {
		picked[i] = true
	}
	for i, d := range rest {
		if picked[i] {
			robotsOthers = append(robotsOthers, d)
		} else if len(c.nonRobots) < nNonRobots {
			c.nonRobots = append(c.nonRobots, d)
		}
	}

	// Derive every site's fork sequentially — Fork consumes parent state,
	// so this order is part of the deterministic stream — then sample the
	// per-site traits in parallel from the private forks.
	type pendingSite struct {
		domain string
		top5k  bool
		rn     *stats.Rand
	}
	var pendingSites []pendingSite
	for _, d := range model.StableTopTier() {
		pendingSites = append(pendingSites, pendingSite{d, true, rn.Fork("site-" + d)})
	}
	c.top5k = len(pendingSites)
	sort.Strings(robotsOthers)
	for _, d := range robotsOthers {
		pendingSites = append(pendingSites, pendingSite{d, false, rn.Fork("site-" + d)})
	}
	c.sites = make([]*Site, len(pendingSites))
	if err := par.Do(ctx, cfg.Workers, len(pendingSites), func(start, end int) {
		for i := start; i < end; i++ {
			p := pendingSites[i]
			c.sites[i] = &Site{
				Domain:        p.domain,
				Top5k:         p.top5k,
				wildcardFull:  p.rn.Bool(wildcardFullProb),
				hasMistake:    p.rn.Bool(mistakeProb),
				hasSitemap:    p.rn.Bool(0.55),
				hasCrawlDelay: p.rn.Bool(crawlDelayProb),
				genericGroups: p.rn.Intn(3),
			}
		}
	}); err != nil {
		return nil, err
	}
	for _, s := range c.sites {
		c.byDomain[s.Domain] = s
	}

	c.buildPinnedEvents(rn.Fork("pinned"))
	if err := c.buildOrganicEvents(ctx, rn.Fork("organic"), cfg.Workers); err != nil {
		return nil, err
	}
	c.buildBackgroundAllows(rn.Fork("bg-allow"))
	if err := par.Do(ctx, cfg.Workers, len(c.sites), func(start, end int) {
		for _, s := range c.sites[start:end] {
			sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Snap < s.Events[j].Snap })
		}
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// buildPinnedEvents replays the documented histories: licensing-deal
// removals (§3.3) and the Table 4 explicit-allow population (§3.4).
func (c *Corpus) buildPinnedEvents(rn *stats.Rand) {
	inDeal := make(map[string]bool)
	for _, deal := range Deals {
		snap := SnapshotIndex(deal.EffectiveSnapshot)
		if snap < 0 {
			continue
		}
		for _, d := range deal.Domains {
			s, ok := c.byDomain[d]
			if !ok {
				continue
			}
			inDeal[d] = true
			// The publisher had restricted the OpenAI crawlers since the
			// surge; the deal removes exactly those rules while the rest
			// of robots.txt stays unchanged (§3.3).
			s.Events = append(s.Events, Event{
				Snap:   dealPriorRestrict,
				Kind:   eventAddRestriction,
				Agents: []string{"GPTBot", "ChatGPT-User"},
				Full:   true,
			})
			s.Events = append(s.Events, Event{
				Snap:   snap,
				Kind:   eventRemoveRestriction,
				Agents: []string{"GPTBot", "ChatGPT-User"},
			})
			if deal.ExplicitAllow {
				// Table 4 pins when the explicit allow first appears.
				first := snap
				if fs, ok := table4ByDomain[d]; ok {
					first = SnapshotIndex(fs)
				}
				s.Events = append(s.Events, Event{
					Snap:   first,
					Kind:   eventExplicitAllow,
					Agents: []string{"GPTBot"},
				})
			}
		}
	}
	// Standalone Table 4 domains (not covered by a deal above).
	for _, row := range Table4 {
		if inDeal[row.Domain] {
			continue
		}
		s, ok := c.byDomain[row.Domain]
		if !ok {
			continue
		}
		snap := SnapshotIndex(row.FirstSeen)
		if snap < 0 {
			continue
		}
		if snap > dealPriorRestrict && rn.Bool(table4PriorRestr) {
			s.Events = append(s.Events, Event{
				Snap:   dealPriorRestrict,
				Kind:   eventAddRestriction,
				Agents: []string{"GPTBot"},
				Full:   true,
			})
			s.Events = append(s.Events, Event{
				Snap:   snap,
				Kind:   eventRemoveRestriction,
				Agents: []string{"GPTBot"},
			})
		}
		s.Events = append(s.Events, Event{
			Snap:   snap,
			Kind:   eventExplicitAllow,
			Agents: []string{"GPTBot"},
		})
	}
}

// buildOrganicEvents draws each unpinned site's adoption trajectory from
// the calibrated hazard curves. Forks are derived sequentially (the
// parent stream is order-sensitive); the draws themselves run on the
// bounded pool, each site writing only its own event slice.
func (c *Corpus) buildOrganicEvents(ctx context.Context, rn *stats.Rand, workers int) error {
	pinned := make(map[string]bool)
	for _, d := range pinnedDomains() {
		pinned[d] = true
	}
	type organicSite struct {
		site *Site
		rn   *stats.Rand
	}
	var work []organicSite
	for _, s := range c.sites {
		if pinned[s.Domain] {
			continue
		}
		work = append(work, organicSite{s, rn.Fork(s.Domain)})
	}
	return par.Do(ctx, workers, len(work), func(start, end int) {
		for _, w := range work[start:end] {
			c.buildSiteOrganicEvents(w.site, w.rn)
		}
	})
}

// buildSiteOrganicEvents draws one site's trajectory from its own fork.
func (c *Corpus) buildSiteOrganicEvents(s *Site, sr *stats.Rand) {
	curve := adoptionOther
	if s.Top5k {
		curve = adoptionTop5k
	}
	u := sr.Float64()
	adoptAt := -1
	for k, target := range curve {
		if u < target {
			adoptAt = k
			break
		}
	}
	if adoptAt < 0 {
		return
	}
	full := sr.Bool(fullShare)
	chosen := c.pickAgents(sr, adoptAt, 1.0)
	s.Events = append(s.Events, Event{
		Snap: adoptAt, Kind: eventAddRestriction, Agents: chosen, Full: full,
	})
	have := make(map[string]bool, len(chosen))
	for _, a := range chosen {
		have[a] = true
	}
	removed := false
	for k := adoptAt + 1; k < len(Snapshots) && !removed; k++ {
		// Background removals (licensing deals we can't see, policy
		// reversals): stronger in the top tier late in the window,
		// reproducing Figure 2's level-off and dip.
		if k >= removalStartIdx {
			p := removalProbOther
			if s.Top5k && k >= top5kRemovalIdx {
				p = removalProbTop5k
			}
			if sr.Bool(p) {
				s.Events = append(s.Events, Event{Snap: k, Kind: eventRemoveRestriction})
				removed = true
				continue
			}
		}
		// List updates: adopters add newly announced agents over time,
		// more eagerly after the EU AI Act draft.
		up := updateProb
		if k >= EUAIActIndex {
			up *= euActUpdateBoost
		}
		if !sr.Bool(up) {
			continue
		}
		var added []string
		for _, extra := range c.pickAgents(sr, k, updateAgentFactor) {
			if !have[extra] {
				have[extra] = true
				added = append(added, extra)
			}
		}
		if len(added) > 0 {
			s.Events = append(s.Events, Event{
				Snap: k, Kind: eventAddRestriction, Agents: added, Full: full,
			})
		}
	}
}

// pickAgents samples the agent list for an adoption or update at snapshot
// k: each agent is included with probability weight×factor, but only if it
// had been announced by the snapshot date. At least one agent is returned.
func (c *Corpus) pickAgents(rn *stats.Rand, k int, factor float64) []string {
	date := Snapshots[k].Date
	var out []string
	for _, a := range agents.Table1 {
		w, ok := agentWeight[a.UserAgent]
		if !ok {
			w = 0.03
		}
		if !agents.AnnouncedBy(a.UserAgent, date) {
			continue
		}
		if rn.Bool(w * factor) {
			out = append(out, a.UserAgent)
		}
	}
	if len(out) == 0 {
		// Fall back to the most popular announced agent.
		best, bestW := "", -1.0
		for _, a := range agents.Table1 {
			if !agents.AnnouncedBy(a.UserAgent, date) {
				continue
			}
			if w := agentWeight[a.UserAgent]; w > bestW {
				bestW, best = w, a.UserAgent
			}
		}
		if best != "" {
			out = append(out, best)
		}
	}
	return out
}

// buildBackgroundAllows adds the small population of sites that invite
// non-OpenAI crawlers (§3.4: shopping and misinformation sites welcoming
// AI traffic). They use CCBot/Amazonbot so the GPTBot-specific Table 4
// reproduction stays exact.
func (c *Corpus) buildBackgroundAllows(rn *stats.Rand) {
	pinned := make(map[string]bool)
	for _, d := range pinnedDomains() {
		pinned[d] = true
	}
	n := int(float64(extraAllowSites)*c.cfg.Scale + 0.5)
	count := 0
	for _, s := range c.sites {
		if count >= n {
			break
		}
		if pinned[s.Domain] || s.wildcardFull {
			continue
		}
		if !rn.Bool(0.01) {
			continue
		}
		ua := backgroundAllowUA1
		if rn.Bool(0.4) {
			ua = backgroundAllowUA2
		}
		snap := 6 + rn.Intn(len(Snapshots)-6)
		s.Events = append(s.Events, Event{
			Snap: snap, Kind: eventExplicitAllow, Agents: []string{ua},
		})
		count++
	}
}

// Sites returns the analysis population (sites with the robots.txt trait),
// top-tier sites first.
func (c *Corpus) Sites() []*Site { return c.sites }

// Top5kCount returns how many analysis sites are in the Stable Top 5k; the
// Sites slice keeps them first.
func (c *Corpus) Top5kCount() int { return c.top5k }

// Config returns the effective configuration.
func (c *Corpus) Config() Config { return c.cfg }

// PresenceCounts returns Table 3's per-snapshot counts for this corpus:
// how many stable sites the crawler saw in snapshot k, and how many of
// those served a robots.txt. The counts follow the paper's targets scaled
// by the corpus scale, with membership sampled deterministically.
func (c *Corpus) PresenceCounts(k int) (sites, withRobots int) {
	if k < 0 || k >= len(Snapshots) {
		return 0, 0
	}
	snap := Snapshots[k]
	scale := c.cfg.Scale
	withRobots = int(float64(snap.TargetRobots)*scale + 0.5)
	if withRobots > len(c.sites) {
		withRobots = len(c.sites)
	}
	noRobots := int(float64(snap.TargetSites-snap.TargetRobots)*scale + 0.5)
	if noRobots > len(c.nonRobots) {
		noRobots = len(c.nonRobots)
	}
	return withRobots + noRobots, withRobots
}
