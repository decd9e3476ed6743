package scenario

import (
	"context"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/netsim"
	"repro/internal/policyd"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

// TestCompiledPolicyMatchesEnactedCrawl cross-checks the two halves of
// the system that answer "may agent U fetch path P on host H": the
// policy a hot site-month publishes, compiled into a one-host
// policyd.Snapshot, and the crawl the roster enacted against the live
// site. Every built-in world (capped at 24 sites, as digestWorlds caps
// them) runs every site hot. For every logged request of a compliant
// roster crawler:
//
//   - the site answered 403 exactly when Decide returns Block;
//   - a content fetch answered 200 is one Decide allows;
//   - no content path Decide denies was requested.
//
// Non-compliant roster entries are the control: across the worlds,
// some of them must fetch a path Decide denies.
func TestCompiledPolicyMatchesEnactedCrawl(t *testing.T) {
	ctx := context.Background()
	controlViolations := 0
	for _, spec := range Builtins() {
		spec.Sites = min(spec.Sites, 24)
		sp := spec.withDefaults()
		roster, err := resolveRoster(sp)
		if err != nil {
			t.Fatal(err)
		}
		world := newTierWorld(sp, roster, sp.startDate())
		compliant := make(map[string]bool, len(roster))
		for r, rc := range roster {
			tok := world.tokens[world.rosterToken[r]]
			if _, dup := compliant[tok]; dup {
				t.Fatalf("%s: two roster entries log as %s", sp.Name, tok)
			}
			compliant[tok] = rc.behavior == crawler.Compliant
		}

		w, err := newTierWorker(world, newTailState(sp.Sites), &waveCache{m: make(map[waveKey]waveEffect)}, sp.monthlyCurve())
		if err != nil {
			t.Fatal(err)
		}
		w.planChunk(siteSeeds(sp), 0, sp.Sites)
		nw := netsim.New()
		if w.farm, err = webserver.NewFarm(nw, siteIP); err != nil {
			t.Fatal(err)
		}
		w.crawlers = newRosterCrawlers(world, nw)

		for i := 0; i < sp.Sites; i++ {
			domain := siteDomain(i)
			site, err := w.farm.StartSite(webserver.Config{Domain: domain, IP: siteIP, Pages: webserver.ContentPages(domain)})
			if err != nil {
				t.Fatal(err)
			}
			w.hot.carry(w.tail, i)
			for m := 0; m < sp.Months; m++ {
				mark := site.LogLen()
				if err := w.runHotMonth(ctx, site, i, m); err != nil {
					t.Fatal(err)
				}
				cfg := policyd.HostConfig{RobotsTxt: world.policies[w.hot.policyID[0]].body}
				if w.hot.blockerOn.get(0) {
					cfg.Blocklist = world.blockers[world.activeBlockerID(m)].patterns
				}
				b := &policyd.Builder{}
				b.Add(domain, cfg)
				snap, err := b.Build(ctx, "crosscheck", 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range site.LogSince(mark) {
					action := snap.Decide(policyd.Query{Host: domain, Agent: rec.UserAgent, Path: rec.Path}).Action
					content := !strings.HasPrefix(rec.Path, "/robots.txt")
					if !compliant[useragent.ProductToken(rec.UserAgent)] {
						if content && rec.Status == 200 && action == policyd.Deny {
							controlViolations++
						}
						continue
					}
					if (rec.Status == 403) != (action == policyd.Block) ||
						content && rec.Status == 200 && action.String() != "allow" ||
						content && action == policyd.Deny {
						t.Errorf("%s site %d month %d: %s got %d for %s, Decide says %v",
							sp.Name, i, m, rec.UserAgent, rec.Status, rec.Path, action)
					}
				}
			}
			site.Close()
		}
		w.close()
	}
	if controlViolations == 0 {
		t.Error("no non-compliant crawler fetched a path Decide denies: the check cannot tell compliance apart")
	}
}
