package scenario

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/agents"
	"repro/internal/crawler"
	"repro/internal/manager"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/robots"
	"repro/internal/webserver"
)

// resolvedCrawler is a roster entry with its behaviour and network
// identity resolved.
type resolvedCrawler struct {
	spec     CrawlerSpec
	behavior crawler.Behavior
	sourceIP string
}

// resolveRoster maps spec entries to concrete crawler identities.
// Registry agents dial from their documented simulated ranges; unknown
// (rogue) tokens get a stable synthetic pool.
func resolveRoster(sp Spec) ([]resolvedCrawler, error) {
	out := make([]resolvedCrawler, len(sp.Crawlers))
	for i, c := range sp.Crawlers {
		b, ok := behaviorNames[c.Behavior]
		if !ok {
			return nil, fmt.Errorf("scenario %s: unknown behavior %q", sp.Name, c.Behavior)
		}
		ip := c.SourceIP
		if ip == "" {
			if a, found := agents.ByToken(c.Token); found && a.IPPrefix != "" {
				ip = a.IPPrefix + ".10"
			} else {
				ip = fmt.Sprintf("66.0.%d.10", i%250)
			}
		}
		out[i] = resolvedCrawler{spec: c, behavior: b, sourceIP: ip}
	}
	return out, nil
}

// rosterCrawlers is one network's crawler fleet: a crawler per roster
// entry, built on its first wave and kept for the run. Scenario profiles
// leave CacheRobots off, so the visit counter — set before every wave —
// is the only state a kept crawler carries from one site to the next;
// what it keeps is its http.Client and that client's keep-alive conns.
type rosterCrawlers struct {
	world *tierWorld
	nw    *netsim.Network
	crs   []*crawler.Crawler // indexed by roster entry; nil until first use
}

func newRosterCrawlers(world *tierWorld, nw *netsim.Network) *rosterCrawlers {
	return &rosterCrawlers{world: world, nw: nw, crs: make([]*crawler.Crawler, len(world.roster))}
}

// wave runs roster entry r's k-th visit (0-based) of its per-site
// schedule against site over real HTTP.
func (rc *rosterCrawlers) wave(ctx context.Context, r, k int, site *webserver.Site) error {
	entry := &rc.world.roster[r]
	cr := rc.crs[r]
	if cr == nil {
		var err error
		cr, err = crawler.New(rc.nw, crawler.Profile{
			Token:    entry.spec.Token,
			SourceIP: entry.sourceIP,
			Behavior: entry.behavior,
			MaxPages: rc.world.sp.MaxPagesPerCrawl,
		})
		if err != nil {
			return err
		}
		rc.crs[r] = cr
	}
	cr.SetVisits(k)
	if entry.spec.SinglePage {
		_, _, err := cr.FetchOne(ctx, site.URL()+"/about.html")
		return err
	}
	_, err := cr.Crawl(ctx, site.URL())
	return err
}

// closeIdle drops every crawler's pooled conns. Removing a site closes
// the server end of each conn that served it; the caller pairs the two,
// or the client ends would sit dead in the pools until evicted.
func (rc *rosterCrawlers) closeIdle() {
	for _, cr := range rc.crs {
		if cr != nil {
			cr.CloseIdleConnections()
		}
	}
}

// blockAll is the policy the managed service and frozen lists derive
// their agent lists from: every AI class, as the §6 blockers do.
var blockAll = manager.Manager{Policy: manager.BlockAllAI}

// siteIP is the shared advertised address of every scenario site — the
// farm listener of each worker's private network.
const siteIP = "203.0.113.80"

// absorbWindow folds one month's log window into mm and the per-token
// evidence map, classifying each record against the site's policy at
// month end. policy may be nil (no robots.txt yet); restricts reports
// whether that policy restricts tok at the root. A token is classified
// against sites whose policy restricts it — the same frame as the
// paper's measurement sites, where every logged fetch happens under an
// applicable disallow rule. Every branch is a commutative tally, so
// record order within a window never changes the outcome — the property
// that lets cold months fold cached per-wave windows instead of a
// single merged month log.
func absorbWindow(window []webserver.Record, policy *robots.Robots, restricts func(string) bool,
	mm *MonthMetrics, windowEv map[string]measure.Evidence) {
	for _, rec := range window {
		tok := measure.ProductToken(rec.UserAgent)
		if tok == "" {
			continue
		}
		restricted := restricts(tok)
		switch {
		case rec.Status == 403:
			// Provider-denied requests (including robots.txt fetches the
			// blocker screened) were never served; they are not evidence
			// of anything but the blocking itself.
			mm.BlockedRequests++
		case rec.Path == "/robots.txt":
			mm.RobotsFetches++
			if restricted {
				ev := windowEv[tok]
				ev.RobotsOK++
				windowEv[tok] = ev
			}
		case strings.HasPrefix(rec.Path, "/robots.txt"):
			if restricted {
				ev := windowEv[tok]
				ev.RobotsBroken++
				windowEv[tok] = ev
			}
		case rec.Status != 200:
			// 404s and friends: neither served content nor a violation.
		case restricted && !policy.Allowed(tok, rec.Path):
			mm.DisallowedBytes += int64(rec.Bytes)
			ev := windowEv[tok]
			ev.Content++
			windowEv[tok] = ev
		default:
			mm.AllowedBytes += int64(rec.Bytes)
		}
	}
}
