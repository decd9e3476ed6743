package manager_test

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

// googleVisit models a dual-use company (§6.2): one crawler, Googlebot,
// feeds two consumers. Pages reach the search index whenever the crawler
// may fetch them; they reach AI training only if robots.txt also leaves
// the company's virtual token, Google-Extended, unrestricted.
func googleVisit(nw *netsim.Network, site *webserver.Site) (indexed, trained []string, err error) {
	const sourceIP = "66.249.1.10"
	cr, err := crawler.New(nw, crawler.Profile{Token: "Googlebot", SourceIP: sourceIP, Behavior: crawler.Compliant})
	if err != nil {
		return nil, nil, err
	}
	v, err := cr.Crawl(context.Background(), site.URL())
	if err != nil || len(v.Fetched) == 0 {
		return nil, nil, err
	}
	indexed = v.Fetched

	// Before training, the company honors the virtual token: it reads
	// robots.txt and filters the collected pages.
	hdr := http.Header{"User-Agent": {useragent.FullUA("Googlebot", "2.1")}}
	status, body, err := netsim.Get(context.Background(), nw.HTTPClient(sourceIP), site.Domain(), "/robots.txt", hdr)
	if err != nil || status != http.StatusOK {
		return indexed, indexed, nil // no policy: train on everything
	}
	policy := robots.ParseString(body)
	for _, p := range indexed {
		if policy.Allowed("Google-Extended", p) {
			trained = append(trained, p)
		}
	}
	return indexed, trained, nil
}

// dualUseScenario hosts one artist site on farm and reports whether
// Google indexes it and trains on it.
func dualUseScenario(farm *webserver.Farm, nw *netsim.Network, name, ip, robotsTxt string, blocker webserver.Blocker) {
	domain := "artist-" + name + ".example"
	cfg := webserver.Config{Domain: domain, IP: ip, Pages: webserver.ContentPages(domain), Blocker: blocker}
	if robotsTxt != "" {
		cfg.RobotsTxt = &robotsTxt
	}
	site, err := farm.StartSite(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer site.Close()
	indexed, trained, err := googleVisit(nw, site)
	if err != nil {
		fmt.Println("error:", err)
		return
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

// A site that wants search visibility but no AI training cannot get it
// by blocking a dual-use crawler such as Googlebot: blocking removes the
// site from search. KeepSearchIndexing is the lever that works — it
// blocks the virtual control token (Google-Extended), which governs use
// without stopping the crawl.
func ExampleManager_keepSearchIndexing() {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.116.250")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer farm.Close()

	fmt.Println("Scenario A — do nothing:")
	dualUseScenario(farm, nw, "open", "203.0.116.1", "", nil)

	fmt.Println("\nScenario B — actively block Googlebot at the edge (all-or-nothing):")
	edgeBlock := webserver.BlockerFunc(func(r *http.Request) *webserver.BlockDecision {
		if useragent.ContainsFold(r.UserAgent(), "googlebot") {
			return &webserver.BlockDecision{Status: http.StatusForbidden,
				Body: "<html><body>blocked</body></html>"}
		}
		return nil
	})
	dualUseScenario(farm, nw, "edge", "203.0.116.2", "", edgeBlock)

	fmt.Println("\nScenario C — robots.txt with the Google-Extended virtual token:")
	m := manager.Manager{Policy: manager.BlockAllAI, KeepSearchIndexing: true}
	asOf := time.Date(2024, time.October, 1, 0, 0, 0, 0, time.UTC)
	dualUseScenario(farm, nw, "virtual", "203.0.116.3", m.Render(asOf), nil)

	fmt.Println("\n§6.2's conclusion: only the virtual token keeps the site in the")
	fmt.Println("search index while opting out of AI training; edge-blocking the")
	fmt.Println("dual-use crawler removes the site from search entirely.")
	// Output:
	// Scenario A — do nothing:
	//   indexed pages: 6   trained pages: 6   → visible in search, USED for AI training
	//
	// Scenario B — actively block Googlebot at the edge (all-or-nothing):
	//   indexed pages: 0   trained pages: 0   → NOT in search results, not used for AI training
	//
	// Scenario C — robots.txt with the Google-Extended virtual token:
	//   indexed pages: 6   trained pages: 0   → visible in search, not used for AI training
	//
	// §6.2's conclusion: only the virtual token keeps the site in the
	// search index while opting out of AI training; edge-blocking the
	// dual-use crawler removes the site from search entirely.
}
