package crawler

import (
	"context"
	"testing"

	"repro/internal/netsim"
	"repro/internal/webserver"
)

// TestCrawlAllocs pins what one crawl of a ContentPages site costs the
// heap: the parsed base URL, the Visit and its Fetched list. The queue,
// the link buffer and the seen set stay in Crawl's frame, and each fetch
// allocates nothing (TestGetFarmPageAllocs).
func TestCrawlAllocs(t *testing.T) {
	const runs = 1000
	nw := netsim.New()
	site := startSite(t, nw, webserver.Config{
		Domain: "allocs.test", IP: "203.0.113.252", Pages: webserver.ContentPages("allocs.test"),
		LogCap: (runs + 1) * 7, // so the site's log never regrows
	})
	c, err := New(nw, Profile{Token: "GPTBot", SourceIP: "24.0.1.99", Behavior: Compliant})
	if err != nil {
		t.Fatal(err)
	}
	ctx, base := context.Background(), site.URL()
	crawl := func() {
		v, err := c.Crawl(ctx, base)
		if err != nil || len(v.Fetched) != 6 {
			t.Fatalf("Crawl = %+v, %v; want 6 pages fetched", v, err)
		}
	}
	allocs := testing.AllocsPerRun(runs, crawl)
	t.Logf("%.2f allocs per crawl", allocs)
	bound := 6.0
	if raceEnabled {
		// The race detector drops most of what goes back to a sync.Pool,
		// so each of the crawl's 7 fetches may make its exchange and
		// kept header slice again.
		bound += 7 * 2
	}
	if allocs > bound {
		t.Errorf("%.2f allocations per crawl of a ContentPages site, want at most %.0f", allocs, bound)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool
