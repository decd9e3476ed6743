package crawler

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
	"repro/internal/webserver"
)

// farmSeq hands each test farm a distinct listener IP so tests can host
// several sites on one network.
var farmSeq atomic.Uint32

func startSite(t *testing.T, nw *netsim.Network, cfg webserver.Config) *webserver.Site {
	t.Helper()
	farm, err := webserver.NewFarm(nw, fmt.Sprintf("203.0.116.%d", farmSeq.Add(1)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { farm.Close() })
	site, err := farm.StartSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestCompliantCrawlerHonorsWildcard(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.WildcardDisallowSite("w.test", "203.0.113.10"))
	c, err := New(nw, Profile{Token: "GPTBot", SourceIP: "24.0.1.1", Behavior: Compliant})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Crawl(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	if !v.RobotsRequested || v.RobotsStatus != 200 {
		t.Fatalf("robots fetch: %+v", v)
	}
	if len(v.Fetched) != 0 {
		t.Fatalf("compliant crawler fetched %v on a fully disallowed site", v.Fetched)
	}
	if len(v.Skipped) == 0 {
		t.Fatal("crawler should record the skipped root")
	}
	// Server log agrees: only /robots.txt was requested.
	for _, rec := range site.Log() {
		if rec.Path != "/robots.txt" {
			t.Fatalf("server saw %s from a compliant crawler", rec.Path)
		}
	}
}

func TestCompliantCrawlerCrawlsAllowedSite(t *testing.T) {
	nw := netsim.New()
	robots := "User-agent: *\nDisallow: /blog/\n"
	cfg := webserver.Config{
		Domain: "open.test", IP: "203.0.113.11",
		RobotsTxt: &robots,
		Pages:     webserver.ContentPages("open.test"),
	}
	site := startSite(t, nw, cfg)
	c, _ := New(nw, Profile{Token: "CCBot", SourceIP: "17.0.1.1", Behavior: Compliant})
	v, err := c.Crawl(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	fetched := map[string]bool{}
	for _, p := range v.Fetched {
		fetched[p] = true
	}
	if !fetched["/"] || !fetched["/gallery.html"] || !fetched["/images/art1.png"] {
		t.Fatalf("fetched = %v; BFS should reach linked content", v.Fetched)
	}
	if fetched["/blog/post1.html"] {
		t.Fatal("crawler entered the disallowed /blog/ prefix")
	}
	found := false
	for _, p := range v.Skipped {
		if p == "/blog/post1.html" {
			found = true
		}
	}
	if !found {
		t.Fatalf("skipped = %v; /blog/post1.html should be recorded", v.Skipped)
	}
}

func TestFetchIgnoreCrawler(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.WildcardDisallowSite("b.test", "203.0.113.12"))
	c, _ := New(nw, Profile{Token: "Bytespider", SourceIP: "16.0.1.1", Behavior: FetchIgnore})
	v, err := c.Crawl(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	if !v.RobotsRequested {
		t.Fatal("Bytespider profile must fetch robots.txt")
	}
	if len(v.Fetched) == 0 {
		t.Fatal("Bytespider profile must crawl despite the disallow")
	}
	// Server log shows both the robots fetch and content fetches — the
	// §5.2.1 passive-measurement signature of fetch-but-ignore.
	sawRobots, sawContent := false, false
	for _, rec := range site.Log() {
		if rec.Path == "/robots.txt" {
			sawRobots = true
		} else {
			sawContent = true
		}
	}
	if !sawRobots || !sawContent {
		t.Fatal("server log must show robots fetch AND content fetches")
	}
}

func TestNoFetchCrawler(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.WildcardDisallowSite("n.test", "203.0.113.13"))
	c, _ := New(nw, Profile{Token: "ShadyFetcher", SourceIP: "99.0.0.1", Behavior: NoFetch})
	v, err := c.Crawl(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	if v.RobotsRequested {
		t.Fatal("no-fetch crawler must not request robots.txt")
	}
	if len(v.Fetched) == 0 {
		t.Fatal("no-fetch crawler crawls unrestricted")
	}
	for _, rec := range site.Log() {
		if rec.Path == "/robots.txt" {
			t.Fatal("server must never see a robots.txt request")
		}
	}
}

func TestBuggyFetchCrawler(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.WildcardDisallowSite("bug.test", "203.0.113.14"))
	c, _ := New(nw, Profile{Token: "BuggyBot", SourceIP: "99.0.0.2", Behavior: BuggyFetch})
	v, err := c.Crawl(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	if !v.RobotsRequested || v.RobotsPath == "/robots.txt" {
		t.Fatalf("buggy crawler must request a malformed robots path, got %q", v.RobotsPath)
	}
	if v.RobotsStatus == 200 {
		t.Fatal("malformed robots request must not succeed")
	}
	if len(v.Fetched) == 0 {
		t.Fatal("buggy crawler crawls because it never saw the policy")
	}
}

func TestIntermittentFetchCrawler(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.WildcardDisallowSite("int.test", "203.0.113.15"))
	c, _ := New(nw, Profile{Token: "SometimesBot", SourceIP: "99.0.0.3", Behavior: IntermittentFetch})
	ctx := context.Background()
	var robotsFetches int
	for i := 0; i < 6; i++ {
		v, err := c.Crawl(ctx, site.URL())
		if err != nil {
			t.Fatal(err)
		}
		if v.RobotsRequested {
			robotsFetches++
			if len(v.Fetched) != 0 {
				t.Fatal("when it fetches robots it must honor them")
			}
		} else if len(v.Fetched) == 0 {
			t.Fatal("without robots it crawls")
		}
	}
	if robotsFetches != 2 {
		t.Fatalf("robots fetched %d times in 6 visits, want 2 (1-in-3)", robotsFetches)
	}
	_ = site
}

func TestFetchOneCompliant(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.WildcardDisallowSite("one.test", "203.0.113.16"))
	c, _ := New(nw, Profile{Token: "ChatGPT-User", SourceIP: "18.0.1.1", Behavior: Compliant})
	fetched, v, err := c.FetchOne(context.Background(), site.URL()+"/about.html")
	if err != nil {
		t.Fatal(err)
	}
	if fetched {
		t.Fatal("compliant assistant must decline a disallowed page")
	}
	if !v.RobotsRequested {
		t.Fatal("assistant must first check robots.txt")
	}
	// Allowed site: the fetch goes through.
	open := startSite(t, nw, webserver.Config{
		Domain: "one2.test", IP: "203.0.113.17",
		Pages: webserver.ContentPages("one2.test"),
	})
	fetched, _, err = c.FetchOne(context.Background(), open.URL()+"/about.html")
	if err != nil {
		t.Fatal(err)
	}
	if !fetched {
		t.Fatal("assistant must fetch from a site with no robots.txt")
	}
}

func TestFetchOneNoFetch(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.WildcardDisallowSite("one3.test", "203.0.113.18"))
	c, _ := New(nw, Profile{Token: "ThirdPartyFetcher", SourceIP: "99.0.0.4", Behavior: NoFetch})
	fetched, v, err := c.FetchOne(context.Background(), site.URL()+"/about.html")
	if err != nil {
		t.Fatal(err)
	}
	if !fetched || v.RobotsRequested {
		t.Fatal("no-fetch assistant grabs the page without consulting robots.txt")
	}
}

func TestPerAgentSiteDistinguishesCrawlers(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.PerAgentDisallowSite("per.test", "203.0.113.19",
		[]string{"GPTBot", "CCBot"}))
	blocked, _ := New(nw, Profile{Token: "GPTBot", SourceIP: "24.0.1.2", Behavior: Compliant})
	free, _ := New(nw, Profile{Token: "Googlebot", SourceIP: "66.0.1.1", Behavior: Compliant})
	ctx := context.Background()
	v1, _ := blocked.Crawl(ctx, site.URL())
	v2, _ := free.Crawl(ctx, site.URL())
	if len(v1.Fetched) != 0 {
		t.Fatal("GPTBot is named and must fetch nothing")
	}
	if len(v2.Fetched) == 0 {
		t.Fatal("Googlebot is not named and crawls freely")
	}
}

func TestExtractLinks(t *testing.T) {
	body := `<a href="/a.html">A</a> <A HREF="/b.html">B</A>
<img src="/img.png"> <a href="#frag">skip</a>
<a href="javascript:void(0)">skip</a> <a href="https://other.test/x">ext</a>`
	links := appendLinks(nil, body)
	sort.Strings(links)
	want := []string{"/a.html", "/b.html", "/img.png", "https://other.test/x"}
	if len(links) != len(want) {
		t.Fatalf("links = %v, want %v", links, want)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("links = %v, want %v", links, want)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	nw := netsim.New()
	if _, err := New(nw, Profile{SourceIP: "1.1.1.1"}); err == nil {
		t.Fatal("missing token must fail")
	}
	if _, err := New(nw, Profile{Token: "X"}); err == nil {
		t.Fatal("missing source IP must fail")
	}
}

func TestBehaviorStrings(t *testing.T) {
	for b, want := range map[Behavior]string{
		Compliant: "compliant", FetchIgnore: "fetch-ignore", NoFetch: "no-fetch",
		BuggyFetch: "buggy-fetch", IntermittentFetch: "intermittent-fetch",
		Behavior(99): "unknown",
	} {
		if got := b.String(); got != want {
			t.Errorf("Behavior(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestMaxPagesBound(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.Config{
		Domain: "cap.test", IP: "203.0.113.20",
		Pages: webserver.ContentPages("cap.test"),
	})
	c, _ := New(nw, Profile{Token: "CapBot", SourceIP: "99.0.0.5", Behavior: NoFetch, MaxPages: 2})
	v, err := c.Crawl(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Fetched) != 2 {
		t.Fatalf("fetched %d pages, want cap of 2", len(v.Fetched))
	}
}

func TestProfileAccessorAndDefaults(t *testing.T) {
	nw := netsim.New()
	c, err := New(nw, Profile{Token: "X", SourceIP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	p := c.profile
	if p.MaxPages != 32 {
		t.Errorf("default MaxPages = %d, want 32", p.MaxPages)
	}
	if p.UserAgent == "" || p.Behavior != Compliant {
		t.Errorf("defaults not applied: %+v", p)
	}
}

// TestCrawlBadURL: a URL that does not parse, or that netsim.Get
// cannot fetch, is an error before any request is sent.
func TestCrawlBadURL(t *testing.T) {
	nw := netsim.New()
	c, _ := New(nw, Profile{Token: "X", SourceIP: "1.2.3.4"})
	for _, base := range []string{"http://bad url", "https://site.test", "http://u:p@site.test", "http:///nohost"} {
		if _, err := c.Crawl(context.Background(), base+"/"); err == nil {
			t.Errorf("Crawl(%q) must error", base+"/")
		}
		if _, _, err := c.FetchOne(context.Background(), base+"/x"); err == nil {
			t.Errorf("FetchOne(%q) must error", base+"/x")
		}
	}
}

func TestFetchOneUnreachableHost(t *testing.T) {
	nw := netsim.New()
	c, _ := New(nw, Profile{Token: "X", SourceIP: "1.2.3.4", Behavior: NoFetch})
	fetched, _, err := c.FetchOne(context.Background(), "http://nowhere.test/x")
	if err == nil || fetched {
		t.Fatal("unreachable host must surface the transport error")
	}
}

func TestFetchOneBlockedPage(t *testing.T) {
	// A 403 from an active blocker is a failed fetch, not content.
	nw := netsim.New()
	cfg := webserver.Config{
		Domain: "fb.test", IP: "203.0.113.23",
		Pages: webserver.ContentPages("fb.test"),
		Blocker: webserver.BlockerFunc(func(r *http.Request) *webserver.BlockDecision {
			return &webserver.BlockDecision{Status: 403, Body: "no"}
		}),
	}
	site := startSite(t, nw, cfg)
	c, _ := New(nw, Profile{Token: "X", SourceIP: "1.2.3.4", Behavior: NoFetch})
	fetched, v, err := c.FetchOne(context.Background(), site.URL()+"/about.html")
	if err != nil {
		t.Fatal(err)
	}
	if fetched || len(v.Failed) != 1 {
		t.Fatalf("blocked fetch must be recorded as failed: %+v", v)
	}
}

func TestCrawlRecordsFailedPages(t *testing.T) {
	nw := netsim.New()
	// Index links to a missing page: the 404 lands in Failed, crawl goes on.
	cfg := webserver.Config{
		Domain: "miss.test", IP: "203.0.113.24",
		Pages: map[string]webserver.Page{
			"/":          {Body: `<a href="/gone.html">x</a><a href="/here.html">y</a>`},
			"/here.html": {Body: "<html>here</html>"},
		},
	}
	site := startSite(t, nw, cfg)
	c, _ := New(nw, Profile{Token: "X", SourceIP: "1.2.3.4", Behavior: NoFetch})
	v, err := c.Crawl(context.Background(), site.URL())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Failed) != 1 || v.Failed[0] != "/gone.html" {
		t.Fatalf("failed = %v, want [/gone.html]", v.Failed)
	}
	found := false
	for _, p := range v.Fetched {
		if p == "/here.html" {
			found = true
		}
	}
	if !found {
		t.Fatal("crawl must continue past a 404")
	}
}

func TestCrawlContextCancellation(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, webserver.Config{
		Domain: "ctx.test", IP: "203.0.113.25",
		Pages: webserver.ContentPages("ctx.test"),
	})
	c, _ := New(nw, Profile{Token: "X", SourceIP: "1.2.3.4", Behavior: NoFetch})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := c.Crawl(ctx, site.URL())
	if err != nil {
		t.Fatal(err) // crawl itself tolerates per-request failures
	}
	if len(v.Fetched) != 0 {
		t.Fatalf("cancelled context must fetch nothing, got %v", v.Fetched)
	}
}
