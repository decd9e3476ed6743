// Package hosting models the artist website hosting ecosystem of §4.4:
// the eight providers of Table 2, the control surfaces they expose over
// robots.txt (none, a search-engine toggle, an AI toggle, or full
// editing), their default robots.txt files and provider-side active
// blocking, plus a 1,182-site artist population and the DNS-based
// provider identification the paper uses.
package hosting

import (
	"fmt"
	"sort"

	"repro/internal/agents"
	"repro/internal/dnssim"
	"repro/internal/robots"
	"repro/internal/stats"
)

// ControlLevel is what a provider lets customers do to robots.txt.
type ControlLevel int

const (
	// noControl: the provider serves a fixed robots.txt.
	noControl ControlLevel = iota
	// searchEngineToggle: customers can disallow search engine crawlers.
	searchEngineToggle
	// aiToggle: customers can disallow AI crawlers with one click
	// (Squarespace, Figure 5).
	aiToggle
	// fullEdit: customers can edit robots.txt directly (paid Wix).
	fullEdit
)

// String renders Table 2's "Edit?" column.
func (c ControlLevel) String() string {
	switch c {
	case noControl:
		return "No"
	case searchEngineToggle:
		return "No (SE)"
	case aiToggle:
		return "No (AI, SE)"
	case fullEdit:
		return "Yes"
	default:
		return "?"
	}
}

// provider is one hosting service.
type provider struct {
	// Name as in Table 2.
	Name string
	// SharePct is Table 2's "% Sites" column.
	SharePct float64
	// Control is the robots.txt control surface.
	Control ControlLevel
	// SubdomainHosting: artist sites are subdomains of Apex (Carbonmade,
	// free Wix); otherwise custom domains point at InfraIP via DNS.
	SubdomainHosting bool
	// Apex is the provider's own domain.
	Apex string
	// InfraIP is the shared ingress address custom domains resolve to.
	InfraIP string
	// DefaultDisallows are paths the provider's stock robots.txt blocks
	// for all crawlers.
	DefaultDisallows []string
	// DefaultAIDisallows are AI agents the stock robots.txt fully blocks
	// (Carbonmade ships GPTBot and CCBot blocked by default).
	DefaultAIDisallows []string
	// ToggleAgents are the agents added when a customer enables the AI
	// toggle (Squarespace's Appendix C.1 list).
	ToggleAgents []string
	// ToggleAdoptionRate is the fraction of customers who enabled the AI
	// toggle (§4.4: 17% on Squarespace; 0 elsewhere).
	ToggleAdoptionRate float64
	// BlockedUAs are user agents the provider actively blocks at the edge
	// (§4.4: Weebly blocks Claudebot and Bytespider).
	BlockedUAs []string
	// ChallengesAutomation: the provider challenges all automated
	// requests (§4.4: ArtStation and Carbonmade).
	ChallengesAutomation bool
	// ToSAITraining summarizes the provider's terms-of-service stance on
	// AI training over user content.
	ToSAITraining string
}

// providers is Table 2: the top eight providers in artist-share order.
var providers = []provider{
	{
		Name: "Squarespace", SharePct: 20.7, Control: aiToggle,
		Apex: "squarespace.com", InfraIP: "198.185.159.1",
		DefaultDisallows:   []string{"/config", "/search", "/account"},
		ToggleAgents:       agents.SquarespaceBlockedAgents,
		ToggleAdoptionRate: 0.17,
		ToSAITraining:      "not addressed",
	},
	{
		Name: "ArtStation", SharePct: 20.4, Control: noControl,
		Apex: "artstation.com", InfraIP: "104.26.5.1",
		DefaultDisallows:     []string{"/search", "/api/"},
		ChallengesAutomation: true,
		ToSAITraining:        "no generative-AI licensing of user content",
	},
	{
		Name: "Wix (Paid)", SharePct: 9.3, Control: fullEdit,
		Apex: "wix.com", InfraIP: "185.230.63.1",
		DefaultDisallows: []string{"/_api/"},
		ToSAITraining:    "may train service-improvement AI tools on user content",
	},
	{
		Name: "Adobe Portfolio", SharePct: 4.8, Control: searchEngineToggle,
		Apex: "myportfolio.com", InfraIP: "151.101.195.1",
		ToSAITraining: "no generative-AI training on user content",
	},
	{
		Name: "Wix (Free)", SharePct: 3.5, Control: noControl,
		SubdomainHosting: true, Apex: "wixsite.com", InfraIP: "185.230.63.2",
		DefaultDisallows: []string{"/_api/"},
		ToSAITraining:    "may train service-improvement AI tools on user content",
	},
	{
		Name: "Weebly", SharePct: 3.1, Control: searchEngineToggle,
		Apex: "weebly.com", InfraIP: "199.34.228.1",
		DefaultDisallows: []string{"/ajax/"},
		BlockedUAs:       []string{"Claudebot", "Bytespider"},
		ToSAITraining:    "not addressed",
	},
	{
		Name: "Shopify", SharePct: 1.7, Control: noControl,
		Apex: "myshopify.com", InfraIP: "23.227.38.1",
		DefaultDisallows: []string{"/checkout", "/cart", "/admin"},
		ToSAITraining:    "not addressed",
	},
	{
		Name: "Carbonmade", SharePct: 1.5, Control: noControl,
		SubdomainHosting: true, Apex: "carbonmade.com", InfraIP: "104.18.22.1",
		DefaultAIDisallows:   []string{"GPTBot", "CCBot"},
		ChallengesAutomation: true,
		ToSAITraining:        "ToS bars scraping content from the site",
	},
}

// providerByName returns the named provider.
func providerByName(name string) (provider, bool) {
	for _, p := range providers {
		if p.Name == name {
			return p, true
		}
	}
	return provider{}, false
}

// robotsTxt renders the robots.txt a site hosted on p serves.
// aiToggleEnabled only matters for aiToggle providers.
func (p provider) robotsTxt(aiToggleEnabled bool) string {
	b := robots.NewBuilder()
	b.Comment("robots.txt served by " + p.Name)
	g := b.Group("*")
	if len(p.DefaultDisallows) > 0 {
		g.Disallow(p.DefaultDisallows...)
	} else {
		g.Disallow()
	}
	if len(p.DefaultAIDisallows) > 0 {
		b.Group(p.DefaultAIDisallows...).DisallowAll()
	}
	if p.Control == aiToggle && aiToggleEnabled && len(p.ToggleAgents) > 0 {
		b.Group(p.ToggleAgents...).DisallowAll()
	}
	return b.String()
}

// ArtistSite is one of the 1,182 directory sites.
type ArtistSite struct {
	// Artist is a display name.
	Artist string
	// Domain is the site's hostname (custom domain or provider subdomain).
	Domain string
	// Provider is the Table 2 provider name, or "" for the long tail
	// (small providers, self-hosted, social media).
	Provider string
	// AIToggleEnabled: the artist enabled the provider's AI toggle.
	AIToggleEnabled bool
}

// Population is the generated artist-site study population.
type Population struct {
	Sites []ArtistSite
	Zone  *dnssim.Zone
}

// paperPopulationSize is the number of artist sites the paper collected.
const paperPopulationSize = 1182

// GeneratePopulation builds n artist sites (0 means the paper's 1,182)
// with Table 2's provider shares, DNS records for identification, and
// Squarespace toggle adoption at the measured 17%.
func GeneratePopulation(n int, seed int64) *Population {
	if n <= 0 {
		n = paperPopulationSize
	}
	rn := stats.NewRand(seed).Fork("artists")
	pop := &Population{Zone: dnssim.NewZone()}

	// Deterministic provider assignment: exact counts per share.
	type slot struct {
		provider string
	}
	var slots []slot
	for _, p := range providers {
		count := int(float64(n)*p.SharePct/100 + 0.5)
		for i := 0; i < count; i++ {
			slots = append(slots, slot{p.Name})
		}
	}
	for len(slots) < n {
		slots = append(slots, slot{""}) // long tail
	}
	slots = slots[:n]
	rn.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	for i, s := range slots {
		artist := fmt.Sprintf("artist-%04d", i+1)
		site := ArtistSite{Artist: artist, Provider: s.provider}
		switch {
		case s.provider == "":
			// Long tail: self-hosted or small providers.
			site.Domain = artist + "-art.example"
			pop.Zone.SetA(site.Domain, fmt.Sprintf("192.0.2.%d", 1+i%250))
		default:
			p, _ := providerByName(s.provider)
			if p.SubdomainHosting {
				site.Domain = artist + "." + p.Apex
				pop.Zone.SetA(site.Domain, p.InfraIP)
			} else {
				site.Domain = artist + ".art"
				pop.Zone.SetCNAME(site.Domain, "ingress."+p.Apex)
				pop.Zone.SetA("ingress."+p.Apex, p.InfraIP)
			}
			if p.Control == aiToggle {
				site.AIToggleEnabled = rn.Bool(p.ToggleAdoptionRate)
			}
		}
		pop.Sites = append(pop.Sites, site)
	}
	return pop
}

// identifyProvider attributes a domain to a Table 2 provider the way the
// paper does: by subdomain suffix, or by resolving DNS to provider
// infrastructure. It returns "" when the domain matches no provider.
func identifyProvider(zone *dnssim.Zone, domain string) string {
	for _, p := range providers {
		if p.SubdomainHosting && dnssim.IsSubdomainOf(domain, p.Apex) {
			return p.Name
		}
	}
	if target, ok := zone.CNAMETarget(domain); ok {
		for _, p := range providers {
			if target == "ingress."+p.Apex || dnssim.IsSubdomainOf(target, p.Apex) {
				return p.Name
			}
		}
	}
	if ips, err := zone.ResolveA(domain); err == nil {
		for _, p := range providers {
			for _, ip := range ips {
				if ip == p.InfraIP {
					return p.Name
				}
			}
		}
	}
	return ""
}

// Table2Row is one line of the regenerated Table 2.
type Table2Row struct {
	Provider string
	// SharePct is the measured share of the population.
	SharePct float64
	// Control is the provider's robots.txt editability.
	Control ControlLevel
	// DisallowAIPct is the percentage of the provider's sites whose
	// robots.txt explicitly disallows at least one Table 1 AI agent.
	DisallowAIPct float64
	// Sites and DisallowAI are the underlying counts.
	Sites      int
	DisallowAI int
}

// Table2 regenerates the paper's Table 2 from a population: identify each
// site's provider via DNS, obtain the robots.txt the provider would
// serve, parse it, and categorize AI restrictions.
func Table2(pop *Population) []Table2Row {
	perProvider := make(map[string]*Table2Row)
	for _, p := range providers {
		perProvider[p.Name] = &Table2Row{Provider: p.Name, Control: p.Control}
	}
	for _, site := range pop.Sites {
		name := identifyProvider(pop.Zone, site.Domain)
		row, ok := perProvider[name]
		if !ok {
			continue
		}
		row.Sites++
		p, _ := providerByName(name)
		body := p.robotsTxt(site.AIToggleEnabled)
		if agents.RestrictsAnyAI(body) {
			row.DisallowAI++
		}
	}
	rows := make([]Table2Row, 0, len(providers))
	for _, p := range providers {
		row := perProvider[p.Name]
		row.SharePct = stats.Percent(row.Sites, len(pop.Sites))
		row.DisallowAIPct = stats.Percent(row.DisallowAI, row.Sites)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SharePct > rows[j].SharePct })
	return rows
}

// ControlSummary aggregates §4.4's agency findings over a population.
type ControlSummary struct {
	// Total sites on each control level.
	ByControl map[ControlLevel]int
	// ToggleEligible and ToggleEnabled measure the gap between having a
	// one-click option and using it (49 of 293 in the paper).
	ToggleEligible int
	ToggleEnabled  int
}

// Summarize computes the control summary.
func Summarize(pop *Population) ControlSummary {
	sum := ControlSummary{ByControl: make(map[ControlLevel]int)}
	for _, site := range pop.Sites {
		p, ok := providerByName(site.Provider)
		if !ok {
			continue
		}
		sum.ByControl[p.Control]++
		if p.Control == aiToggle {
			sum.ToggleEligible++
			if site.AIToggleEnabled {
				sum.ToggleEnabled++
			}
		}
	}
	return sum
}
