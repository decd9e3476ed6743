package crawler

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/webserver"
)

// TestKeptCrawlerMatchesFresh: a crawler kept across sites and placed
// with SetVisits(k) behaves exactly like a new crawler that really made
// k earlier visits — same Visit, same requests in the site's log — for
// every behaviour and both entry points. Each phase's site reuses the
// previous one's domain after that site was removed, so the kept
// crawler arrives having fetched from a site that is gone.
func TestKeptCrawlerMatchesFresh(t *testing.T) {
	ctx := context.Background()
	policy := "User-agent: *\nDisallow: /blog/\n"
	visits := map[string]func(*Crawler, *webserver.Site) (*Visit, error){
		"Crawl": func(c *Crawler, s *webserver.Site) (*Visit, error) { return c.Crawl(ctx, s.URL()) },
		"FetchOne": func(c *Crawler, s *webserver.Site) (*Visit, error) {
			_, v, err := c.FetchOne(ctx, s.URL()+"/about.html")
			return v, err
		},
	}
	for _, b := range []Behavior{Compliant, FetchIgnore, NoFetch, BuggyFetch, IntermittentFetch} {
		for name, visit := range visits {
			t.Run(fmt.Sprintf("%s/%s", b, name), func(t *testing.T) {
				nw := netsim.New()
				farm, err := webserver.NewFarm(nw, "203.0.116.200")
				if err != nil {
					t.Fatal(err)
				}
				defer farm.Close()
				start := func(domain string) *webserver.Site {
					site, err := farm.StartSite(webserver.Config{
						Domain: domain, IP: "203.0.116.200",
						RobotsTxt: &policy,
						Pages:     webserver.ContentPages(domain),
					})
					if err != nil {
						t.Fatal(err)
					}
					return site
				}
				elsewhere := start("elsewhere.test")
				profile := Profile{Token: "GPTBot", SourceIP: "24.0.1.7", Behavior: b, MaxPages: 4}
				kept, err := New(nw, profile)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k <= 3; k++ {
					site := start("kept.test")
					fresh, err := New(nw, profile)
					if err != nil {
						t.Fatal(err)
					}
					for j := 0; j < k; j++ {
						if _, err := visit(fresh, elsewhere); err != nil {
							t.Fatal(err)
						}
					}
					want, err := visit(fresh, site)
					if err != nil {
						t.Fatal(err)
					}
					mark := site.LogLen()
					kept.SetVisits(k)
					got, err := visit(kept, site)
					if err != nil {
						t.Fatalf("phase %d: kept crawler: %v", k, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("phase %d: kept crawler's visit %+v, fresh crawler's %+v", k, got, want)
					}
					wantLog, gotLog := site.LogSince(0)[:mark], site.LogSince(mark)
					if len(wantLog) == 0 || !reflect.DeepEqual(gotLog, wantLog) {
						t.Errorf("phase %d: kept crawler logged %+v, fresh crawler %+v", k, gotLog, wantLog)
					}
					site.Close()
				}
			})
		}
	}
}
