// Dualpurpose: reproduce §6.2's dual-use-crawler dilemma. Googlebot
// feeds both the search index and AI training, so a site that wants
// search visibility but no AI training cannot solve this with active
// blocking — blocking the crawler removes the site from search. The only
// working lever is robots.txt with the special "virtual" control token
// (Google-Extended), which governs use without stopping the crawl.
package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/crawler"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/robots"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

// mixedUseCompany models Google: one crawler, two downstream consumers.
// Pages reach the search index whenever the crawler may fetch them; they
// reach AI training only if robots.txt additionally leaves the company's
// virtual AI token unrestricted.
type mixedUseCompany struct {
	crawlerToken string
	virtualToken string
	sourceIP     string
}

func (m mixedUseCompany) visit(nw *netsim.Network, site *webserver.Site) (indexed, trained []string, err error) {
	cr, err := crawler.New(nw, crawler.Profile{
		Token: m.crawlerToken, SourceIP: m.sourceIP, Behavior: crawler.Compliant,
	})
	if err != nil {
		return nil, nil, err
	}
	v, err := cr.Crawl(context.Background(), site.URL())
	if err != nil {
		return nil, nil, err
	}
	indexed = v.Fetched
	if len(indexed) == 0 {
		return nil, nil, nil
	}

	// Before training, the company honors the virtual token: it reads
	// robots.txt and filters the collected pages.
	client := nw.HTTPClient(m.sourceIP)
	hdr := http.Header{"User-Agent": {useragent.FullUA(m.crawlerToken, "2.1")}}
	status, body, err := netsim.Get(context.Background(), client, site.URL()+"/robots.txt", hdr)
	if err != nil || status != http.StatusOK {
		return indexed, indexed, nil // no policy: train on everything
	}
	policy := robots.ParseString(body)
	for _, p := range indexed {
		if policy.Allowed(m.virtualToken, p) {
			trained = append(trained, p)
		}
	}
	return indexed, trained, nil
}

func runScenario(farm *webserver.Farm, nw *netsim.Network, company mixedUseCompany, name, ip, robotsTxt string, blocker webserver.Blocker) {
	cfg := webserver.Config{
		Domain: "artist-" + name + ".example", IP: ip,
		Pages:   webserver.ContentPages("artist-" + name + ".example"),
		Blocker: blocker,
	}
	if robotsTxt != "" {
		cfg.RobotsTxt = &robotsTxt
	}
	site, err := farm.StartSite(cfg)
	if err != nil {
		panic(err)
	}
	defer site.Close()
	indexed, trained, err := company.visit(nw, site)
	if err != nil {
		panic(err)
	}
	inSearch := "NOT in search results"
	if len(indexed) > 0 {
		inSearch = "visible in search"
	}
	usedForAI := "not used for AI training"
	if len(trained) > 0 {
		usedForAI = "USED for AI training"
	}
	fmt.Printf("  indexed pages: %-2d  trained pages: %-2d  → %s, %s\n",
		len(indexed), len(trained), inSearch, usedForAI)
}

func main() {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.116.250")
	if err != nil {
		panic(err)
	}
	defer farm.Close()
	google := mixedUseCompany{
		crawlerToken: "Googlebot",
		virtualToken: "Google-Extended",
		sourceIP:     "66.249.1.10",
	}

	fmt.Println("Scenario A — do nothing:")
	runScenario(farm, nw, google, "open", "203.0.116.1", "", nil)

	fmt.Println("\nScenario B — actively block Googlebot at the edge (all-or-nothing):")
	edgeBlock := webserver.BlockerFunc(func(r *http.Request) *webserver.BlockDecision {
		if useragent.ContainsFold(r.UserAgent(), "googlebot") {
			return &webserver.BlockDecision{Status: http.StatusForbidden,
				Body: "<html><body>blocked</body></html>"}
		}
		return nil
	})
	runScenario(farm, nw, google, "edge", "203.0.116.2", "", edgeBlock)

	fmt.Println("\nScenario C — robots.txt with the Google-Extended virtual token:")
	m := manager.Manager{Policy: manager.BlockAllAI, KeepSearchIndexing: true}
	asOf := time.Date(2024, time.October, 1, 0, 0, 0, 0, time.UTC)
	runScenario(farm, nw, google, "virtual", "203.0.116.3", m.Render(asOf), nil)

	fmt.Println("\n§6.2's conclusion: only the virtual token keeps the site in the")
	fmt.Println("search index while opting out of AI training; edge-blocking the")
	fmt.Println("dual-use crawler removes the site from search entirely.")
}
