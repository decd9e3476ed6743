// Package manager implements managed robots.txt services (§2.2 of the
// paper: Dark Visitors, YoastSEO, AIOSEO): tools that maintain a site's
// robots.txt against an evolving registry of AI user agents, so that the
// "burden of keeping track of the current user agent mapping" (§8.1)
// falls on the service instead of each site administrator.
//
// The package also quantifies that burden: Coverage computes how much of
// the AI-agent population a static, hand-written rule list misses as new
// crawlers are announced over the study window.
package manager

import (
	"sort"
	"time"

	"repro/internal/agents"
	"repro/internal/robots"
	"repro/internal/stats"
)

// PolicyClass selects which kinds of AI agents a site wants to block.
type PolicyClass int

const (
	// blockAIData blocks training-data crawlers only.
	blockAIData PolicyClass = 1 << iota
	// blockAIAssistants blocks user-triggered assistant crawlers.
	blockAIAssistants
	// blockAISearch blocks AI search indexers.
	blockAISearch
	// blockUndocumented blocks undocumented AI agents.
	blockUndocumented
	// BlockAllAI blocks every AI agent class.
	BlockAllAI = blockAIData | blockAIAssistants | blockAISearch | blockUndocumented
)

// categoryBit maps an agent category to its policy bit.
func categoryBit(c agents.Category) PolicyClass {
	switch c {
	case agents.AIData:
		return blockAIData
	case agents.AIAssistant:
		return blockAIAssistants
	case agents.AISearch:
		return blockAISearch
	case agents.Undocumented:
		return blockUndocumented
	default:
		return 0
	}
}

// Manager renders managed robots.txt content from a policy and the agent
// registry, as of a given date. Sites using a manager automatically pick
// up rules for newly announced agents; hand-maintained sites do not.
type Manager struct {
	// Policy selects which agent classes to block.
	Policy PolicyClass
	// KeepSearchIndexing, when set, spares dual-purpose search crawlers
	// and blocks their virtual control tokens instead (§6.2: blocking
	// Googlebot outright would remove the site from search).
	KeepSearchIndexing bool
	// BaseDisallows are the site's own non-AI rules, kept verbatim.
	BaseDisallows []string
}

// BlockedAgents returns the user agents the manager blocks as of date, in
// registry order.
func (m Manager) BlockedAgents(asOf time.Time) []string {
	var out []string
	for _, a := range agents.Table1 {
		if categoryBit(a.Category)&m.Policy == 0 {
			continue
		}
		if !agents.AnnouncedBy(a.UserAgent, asOf) {
			continue
		}
		if m.KeepSearchIndexing && a.Category == agents.AISearch && !a.VirtualToken {
			continue
		}
		out = append(out, a.UserAgent)
	}
	return out
}

// Render produces the managed robots.txt as of date.
func (m Manager) Render(asOf time.Time) string {
	b := robots.NewBuilder()
	b.Comment("managed robots.txt — agent list as of " + asOf.Format("2006-01-02"))
	if blocked := m.BlockedAgents(asOf); len(blocked) > 0 {
		b.Group(blocked...).DisallowAll()
	}
	g := b.Group("*")
	if len(m.BaseDisallows) > 0 {
		g.Disallow(m.BaseDisallows...)
	} else {
		g.Disallow()
	}
	return b.String()
}

// Coverage is the §8.1 maintenance-gap measurement for one point in time.
type Coverage struct {
	Date time.Time
	// Announced is how many blockable agents exist at this date.
	Announced int
	// StaticCovered is how many a list frozen at the freeze date covers.
	StaticCovered int
	// ManagedCovered is how many the managed list covers (always all).
	ManagedCovered int
}

// Gap returns the fraction of announced agents the static list misses.
func (c Coverage) Gap() float64 {
	if c.Announced == 0 {
		return 0
	}
	return float64(c.Announced-c.StaticCovered) / float64(c.Announced)
}

// MaintenanceGap compares a static rule list frozen at freezeDate against
// a managed list at each subsequent date. It quantifies the §8.1 burden:
// a site that wrote a thorough AI blocklist in 2023 silently loses
// coverage as new crawlers appear.
func MaintenanceGap(policy PolicyClass, freezeDate time.Time, dates []time.Time) []Coverage {
	m := Manager{Policy: policy}
	frozen := make(map[string]bool)
	for _, ua := range m.BlockedAgents(freezeDate) {
		frozen[ua] = true
	}
	var out []Coverage
	for _, d := range dates {
		current := m.BlockedAgents(d)
		cov := Coverage{Date: d, Announced: len(current), ManagedCovered: len(current)}
		for _, ua := range current {
			if frozen[ua] {
				cov.StaticCovered++
			}
		}
		out = append(out, cov)
	}
	return out
}

// GapSeries converts a coverage slice to a plottable series of static-list
// gap percentages.
func GapSeries(covs []Coverage) stats.Series {
	s := stats.Series{Name: "static-list gap"}
	for _, c := range covs {
		s.Points = append(s.Points, stats.Point{
			Time:  c.Date,
			Label: c.Date.Format("Jan 2006"),
			Value: 100 * c.Gap(),
		})
	}
	return s
}

// AgentsAnnouncedBetween lists agents announced in (from, to], sorted by
// announcement date — what a site administrator would have had to notice
// and add by hand.
func AgentsAnnouncedBetween(from, to time.Time) []agents.Agent {
	var out []agents.Agent
	for _, a := range agents.Table1 {
		if a.Announced.After(from) && !a.Announced.After(to) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Announced.Before(out[j].Announced) })
	return out
}
