package scenario

import (
	"fmt"
	"strconv"

	"repro/internal/stats"
)

// SiteDomain is the canonical domain of scenario site i, shared by the
// engine and the run store's per-site segments.
func SiteDomain(i int) string {
	return fmt.Sprintf("site-%05d.scenario.test", i)
}

// Site policy styles, as SitePlan.Style reports them.
const (
	// StyleWildcard is a blanket `User-agent: *` disallow.
	StyleWildcard = "wildcard"
	// StyleMeasurement is the §5.1 per-agent measurement list naming
	// every Table 1 agent.
	StyleMeasurement = "measurement"
	// StyleManaged is a managed-service list refreshed monthly.
	StyleManaged = "managed"
	// StyleFrozen is a hand-written per-agent list frozen at adoption.
	StyleFrozen = "frozen-list"
)

// SitePlan is one site's derivable policy timeline: when it adopts an
// AI-restricting robots.txt, in which style, and whether it sits behind
// the active-blocking provider. Everything here is a pure function of
// (spec, seed, site index) — drawPlan's four RNG draws, the same call
// the engine fills its columns from — so plans can be recomputed for
// any run without re-running the simulation, and two stored runs can be
// diffed host by host for policy and blocker flips.
type SitePlan struct {
	Site   int    `json:"site"`
	Domain string `json:"domain"`
	// AdoptMonth is the month the site first publishes an AI-restricting
	// robots.txt; -1 means it never adopts.
	AdoptMonth int `json:"adopt_month"`
	// Style is the adopted policy's shape (Style* constants); empty when
	// the site never adopts.
	Style string `json:"style,omitempty"`
	// Blocker reports whether the site is behind the active-blocking
	// provider (blocking turns on at the spec's rollout month).
	Blocker bool `json:"blocker,omitempty"`
}

// SitePlans derives every site's plan for a spec: the engine's own
// per-site seeds and drawPlan, so the plans are what any RunTiered of
// the same spec enacts.
func SitePlans(spec Spec) ([]SitePlan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sp := spec.withDefaults()
	curve := sp.monthlyCurve()
	plans := make([]SitePlan, sp.Sites)
	rn := stats.NewRand(0)
	for i, seed := range siteSeeds(sp) {
		plans[i] = planFor(&sp, curve, rn, i, seed)
	}
	return plans, nil
}

// siteSeeds derives every site's private RNG seed. Forking consumes
// parent RNG state, so the seeds are derived sequentially in site order
// before any sharding; each site then draws only from its own stream,
// which keeps per-site randomness identical at any worker count. The
// stream depends on the seed but not the spec name, so counterfactual
// variants of one world are paired: the same sites adopt at the same
// months, and only the knob under study differs (coupled random
// numbers).
func siteSeeds(sp Spec) []int64 {
	root := stats.NewRand(sp.Seed).Fork("scenario")
	seeds := make([]int64, sp.Sites)
	label := []byte("site-")
	for i := range seeds {
		label = strconv.AppendInt(label[:len("site-")], int64(i), 10)
		seeds[i] = root.ForkSeed(string(label)) // not retained, so the string stays on the stack
	}
	return seeds
}

// drawPlan is the one plan derivation: site i's adoption month (-1 =
// never), policy style bits and provider membership, from four draws of
// its private stream — in a fixed order, so the stream is stable however
// the spec's knobs are set. Managed services only matter for per-agent
// organic adopters: a blanket wildcard disallow already covers every
// future agent, and the measurement replay pins its policies verbatim.
// rn is the caller's scratch source, reseeded here — free since stats.Rand
// seeds lazily: four draws never build math/rand's 607-word state — so
// planning allocates nothing per site. The result is scalars, so planning
// a million sites holds no per-site state beyond the caller's columns.
func drawPlan(sp *Spec, curve []float64, rn *stats.Rand, i int, seed int64) (adoptMonth int, perAgent, managed, blocker bool) {
	rn.Seed(seed)
	adoptRoll := rn.Float64()
	perAgentRoll := rn.Float64()
	managedRoll := rn.Float64()
	blockedRoll := rn.Float64()

	adoptMonth = -1
	switch sp.Adoption.Source {
	case SourceMeasurement:
		adoptMonth = 0
		perAgent = i%2 == 1
	case SourceNone:
	default:
		for m, target := range curve {
			if adoptRoll < target {
				adoptMonth = m
				break
			}
		}
		perAgent = perAgentRoll < sp.Adoption.PerAgentShare
		managed = adoptMonth >= 0 && perAgent && managedRoll < sp.Manager.Uptake
	}
	return adoptMonth, perAgent, managed, blockedRoll < sp.Blocking.Share
}

// planFor dresses drawPlan's result as a SitePlan: the domain and the
// adopted policy's style name.
func planFor(sp *Spec, curve []float64, rn *stats.Rand, i int, seed int64) SitePlan {
	adoptMonth, perAgent, managed, blocker := drawPlan(sp, curve, rn, i, seed)
	p := SitePlan{Site: i, Domain: SiteDomain(i), AdoptMonth: adoptMonth, Blocker: blocker}
	if adoptMonth >= 0 {
		switch {
		case !perAgent:
			p.Style = StyleWildcard
		case sp.Adoption.Source == SourceMeasurement:
			p.Style = StyleMeasurement
		case managed:
			p.Style = StyleManaged
		default:
			p.Style = StyleFrozen
		}
	}
	return p
}
