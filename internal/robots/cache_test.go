package robots

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCacheIdentitySameBodySameRobots(t *testing.T) {
	c := NewCache(16)
	body := "User-agent: GPTBot\nDisallow: /\n"
	a := c.Parse(body)
	b := c.Parse(body)
	if a != b {
		t.Fatal("same body must return the identical *Robots")
	}
	// A different profile is a different cache identity.
	strict := c.ParseProfile(body, ProfileStrictRFC)
	if strict == a {
		t.Fatal("different profiles must not share a parse")
	}
	if again := c.ParseProfile(body, ProfileStrictRFC); again != strict {
		t.Fatal("same profile+body must return the identical *Robots")
	}
	// Different bodies are distinct entries.
	if other := c.Parse("User-agent: CCBot\nDisallow: /\n"); other == a {
		t.Fatal("different bodies must not share a parse")
	}
	if n := c.Stats().Entries; n != 3 {
		t.Fatalf("cache holds %d entries, want 3", n)
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache(2)
	bodyA := "User-agent: A\nDisallow: /\n"
	bodyB := "User-agent: B\nDisallow: /\n"
	bodyC := "User-agent: C\nDisallow: /\n"

	a1 := c.Parse(bodyA)
	c.Parse(bodyB)
	// Touch A so B is the least recently used, then insert C.
	if a2 := c.Parse(bodyA); a2 != a1 {
		t.Fatal("A evicted prematurely")
	}
	c.Parse(bodyC)
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("cache holds %d entries, want cap 2", n)
	}
	// A survived (recently used)...
	if a3 := c.Parse(bodyA); a3 != a1 {
		t.Fatal("recently-used entry was evicted")
	}
	// ...which means B was evicted and re-parsing it grew the cache back
	// to cap by evicting C in turn; the fresh parse is a new value that
	// still classifies identically.
	b2 := c.Parse(bodyB)
	if !b2.Agent("B").Explicit {
		t.Fatal("re-parsed entry lost its content")
	}
}

func TestCacheConcurrentAccessSingleIdentity(t *testing.T) {
	c := NewCache(64)
	const goroutines = 32
	const bodies = 8
	results := make([][]*Robots, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]*Robots, bodies)
			for i := 0; i < bodies; i++ {
				body := fmt.Sprintf("User-agent: Bot%d\nDisallow: /private%d/\n", i, i)
				results[g][i] = c.Parse(body)
				// Exercise the concurrent view-table build too.
				if results[g][i].Allowed(fmt.Sprintf("Bot%d", i), fmt.Sprintf("/private%d/x", i)) {
					t.Errorf("body %d: disallowed path reported allowed", i)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < bodies; i++ {
		for g := 1; g < goroutines; g++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got a different *Robots for body %d", g, i)
			}
		}
	}
	if n := c.Stats().Entries; n != bodies {
		t.Fatalf("cache holds %d entries, want %d", n, bodies)
	}
}

// TestCachedVerdictParityAcrossProfiles asserts that a cached parse and a
// fresh parse reach identical access verdicts for every parser profile,
// on bodies that specifically exercise each profile's divergences.
func TestCachedVerdictParityAcrossProfiles(t *testing.T) {
	bodies := []string{
		"User-agent: *\nDisallow: /\n",
		"User-agent: GPTBot\nUser-agent: CCBot\nDisallow: /images/\nAllow: /images/public/\n",
		// Blank line inside a group (BlankLineBreaksGroups divergence).
		"User-agent: Bytespider\n\nDisallow: /\n",
		// Crawl-delay between groups (CrawlDelayBreaksGroups divergence).
		"User-agent: gptbot\nCrawl-delay: 5\nUser-agent: ClaudeBot\nDisallow: /blog/\n",
		// Case sensitivity and hierarchy (CaseSensitiveAgents / StrictTokenMatch).
		"User-agent: Googlebot\nDisallow: /news/\n",
		// Precedence ordering (FirstMatchPrecedence divergence).
		"User-agent: *\nAllow: /shop/public\nDisallow: /shop\nDisallow: /search$\n",
	}
	bodies = append(bodies, cacheDivergentBodies()...)
	agents := []string{"GPTBot", "gptbot", "CCBot", "Bytespider", "ClaudeBot",
		"Googlebot", "Googlebot-News", "RandomBot", "LateBot"}
	paths := []string{"/", "/images/x.png", "/images/public/x.png", "/blog/post",
		"/news/today", "/shop/public/item", "/shop/cart", "/search", "/robots.txt"}
	profiles := []Profile{ProfileGoogle, ProfileStrictRFC, ProfileLegacyBuggy, ProfileClassic1994}

	cache := NewCache(0)
	for _, p := range profiles {
		for _, body := range bodies {
			cached := cache.ParseProfile(body, p)
			fresh := ParseStringProfile(body, p)
			for _, ua := range agents {
				ca, fa := cached.Agent(ua), fresh.Agent(ua)
				if ca.Explicit != fa.Explicit {
					t.Errorf("profile %s body %q agent %s: Explicit cached=%v fresh=%v",
						p.Name, body, ua, ca.Explicit, fa.Explicit)
				}
				for _, path := range paths {
					if got, want := ca.Allowed(path), fa.Allowed(path); got != want {
						t.Errorf("profile %s body %q agent %s path %s: cached=%v fresh=%v",
							p.Name, body, ua, path, got, want)
					}
				}
				// Restriction classification must agree too.
				cl, ce := cached.ExplicitRestriction(ua)
				fl, fe := fresh.ExplicitRestriction(ua)
				if cl != fl || ce != fe {
					t.Errorf("profile %s body %q agent %s: restriction cached=(%v,%v) fresh=(%v,%v)",
						p.Name, body, ua, cl, ce, fl, fe)
				}
			}
		}
	}
}

// TestCacheNormalizedKeyCollapsesTemplates pins the normalized content
// key: bodies that differ only in per-site comment and Sitemap lines —
// how every corpus rendering differs from its neighbours — share one
// cache entry, one *Robots identity, and identical rule semantics, and
// the hit/miss counters prove the dedup.
func TestCacheNormalizedKeyCollapsesTemplates(t *testing.T) {
	c := NewCache(0)
	template := func(domain string) string {
		return "# robots.txt for " + domain + "\n" +
			"User-agent: *\nDisallow: /admin/\n\n" +
			"User-agent: GPTBot\nUser-agent: CCBot\nDisallow: /\n\n" +
			"Sitemap: https://" + domain + "/sitemap.xml\n"
	}
	first := c.Parse(template("site-00001.example"))
	for i := 2; i <= 100; i++ {
		rb := c.Parse(template(fmt.Sprintf("site-%05d.example", i)))
		if rb != first {
			t.Fatalf("site %d: normalized bodies must share one parse identity", i)
		}
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (all bodies are one template)", st.Entries)
	}
	if st.Misses != 1 || st.Hits != 99 {
		t.Fatalf("hits/misses = %d/%d, want 99/1", st.Hits, st.Misses)
	}

	// Rule semantics match a verbatim parse exactly.
	body := template("site-00042.example")
	direct := ParseString(body)
	for _, tc := range []struct {
		agent, path string
	}{
		{"GPTBot", "/"}, {"GPTBot", "/about.html"}, {"CCBot", "/x"},
		{"Googlebot", "/admin/x"}, {"Googlebot", "/page"},
	} {
		if got, want := first.Allowed(tc.agent, tc.path), direct.Allowed(tc.agent, tc.path); got != want {
			t.Errorf("Allowed(%s, %s): cached %v, direct %v", tc.agent, tc.path, got, want)
		}
	}

	// A body with genuinely different rules is a different entry.
	other := c.Parse("User-agent: *\nDisallow: /\n")
	if other == first {
		t.Fatal("different policies must not collapse")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

// TestCacheNormalizationRespectsBuggyProfiles pins the gate: under a
// profile where comment lines break groups (the legacy-buggy parser
// reproduction), stripping them would change semantics, so the cache
// keys those bodies verbatim.
func TestCacheNormalizationRespectsBuggyProfiles(t *testing.T) {
	// Under ProfileLegacyBuggy the comment line splits the two User-agent
	// lines into separate groups (and last-agent-wins drops the first);
	// with the comment stripped they form one group.
	body := "User-agent: GPTBot\n# split here\nUser-agent: CCBot\nDisallow: /\n"
	c := NewCache(0)
	cached := c.ParseProfile(body, ProfileLegacyBuggy)
	direct := ParseStringProfile(body, ProfileLegacyBuggy)
	if got, want := cached.Allowed("GPTBot", "/x"), direct.Allowed("GPTBot", "/x"); got != want {
		t.Fatalf("legacy-buggy cached parse diverged from direct parse: %v vs %v", got, want)
	}
	// And the buggy profile's entry must not be shared with a normalized
	// Google-profile entry for the same body.
	if c.ParseProfile(body, ProfileGoogle) == cached {
		t.Fatal("profiles must not share entries")
	}
}

// TestNormalizeKey covers the line classifier directly.
func TestNormalizeKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"User-agent: *\nDisallow: /\n", "User-agent: *\nDisallow: /\n"}, // untouched, no alloc path
		{"# c\nUser-agent: *\nDisallow: /\n", "User-agent: *\nDisallow: /\n"},
		{"  \t# indented comment\nAllow: /a\n", "Allow: /a\n"},
		{"Sitemap: https://a/s.xml\nUser-agent: *\nDisallow: /\n", "User-agent: *\nDisallow: /\n"},
		{"SITE-MAP : https://a/s.xml\nAllow: /\n", "Allow: /\n"},
		{"User-agent: *\nDisallow: /a#frag\n", "User-agent: *\nDisallow: /a#frag\n"}, // inline '#' kept
		{"Sitemapish: x\n", "Sitemapish: x\n"},                                       // not a sitemap directive
		{"Disallow: / # trailing comment\n", "Disallow: / # trailing comment\n"},     // whole-line only
		{"# only a comment", ""},
	}
	for _, tc := range cases {
		if got := normalizeKey(tc.in); got != tc.want {
			t.Errorf("normalizeKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// The no-strip fast path, and a body the strip path must key
	// verbatim, return the identical string.
	for _, in := range []string{"User-agent: *\nDisallow: /\n", "# c\rUser-agent: *\rDisallow: /\r"} {
		if out := normalizeKey(in); unsafe.StringData(out) != unsafe.StringData(in) || out != in {
			t.Errorf("normalizeKey(%q) = %q, want the input itself", in, out)
		}
	}
}

// cacheDivergentBodies are bodies on which stripping comment lines would
// change what the parser sees, so the cache must key them verbatim: a
// bare-CR body (the parser ends lines at \r; a stripped key would drop
// the rules sharing the comment's \n-line), a body over maxSize (comment
// filler stripped from the key would pull LateBot's rules back under the
// cap), and a BOM on the first kept line (the parser trims a BOM only on
// line 1, which stripping line 1 would make it).
func cacheDivergentBodies() []string {
	oversized := "User-agent: *\nDisallow: /early/\n" +
		strings.Repeat("# padding comment line to inflate the file\n", 1+maxSize/40) +
		"User-agent: LateBot\nDisallow: /\n"
	return []string{
		"# c\rUser-agent: *\rDisallow: /\r",
		oversized,
		"# c\n\ufeffUser-agent: *\nDisallow: /\n",
	}
}

// FuzzParseCachedMatchesParse checks the cache's normalized key against
// the parser on bodies the corpus generator never writes: a cached parse
// (fresh cache, so the body's own key decides) must answer Allowed,
// Explicit and ExplicitRestriction exactly as a direct parse does, for
// the body's own agent tokens and a fixed agent and path set.
func FuzzParseCachedMatchesParse(f *testing.F) {
	profiles := []Profile{ProfileGoogle, ProfileStrictRFC, ProfileLegacyBuggy, ProfileClassic1994}
	for _, body := range append(cacheDivergentBodies(),
		"# robots.txt for a.example\nUser-agent: GPTBot\nDisallow: /\n\nSitemap: https://a.example/s.xml\n",
		"User-agent: *\n# note\nUser-agent: CCBot\nAllow: /public\nDisallow: /\n") {
		for i := range profiles {
			f.Add(body, uint8(i))
		}
	}
	fixedAgents := []string{"GPTBot", "gptbot", "CCBot", "Googlebot", "Googlebot-News", "RandomBot"}
	fixedPaths := []string{"/", "/x", "/public/a", "/early/x", "/search", "/robots.txt"}
	f.Fuzz(func(t *testing.T, body string, profile uint8) {
		p := profiles[int(profile)%len(profiles)]
		cached := NewCache(0).ParseProfile(body, p)
		fresh := ParseStringProfile(body, p)
		agents := fixedAgents
		paths := fixedPaths
		for _, g := range fresh.Groups {
			agents = append(agents, g.Agents...)
			for _, r := range g.Rules {
				paths = append(paths, r.Path)
			}
		}
		for _, ua := range agents {
			ca, fa := cached.Agent(ua), fresh.Agent(ua)
			if ca.Explicit != fa.Explicit {
				t.Fatalf("profile %s body %q agent %q: Explicit cached=%v fresh=%v", p.Name, body, ua, ca.Explicit, fa.Explicit)
			}
			cl, ce := cached.ExplicitRestriction(ua)
			fl, fe := fresh.ExplicitRestriction(ua)
			if cl != fl || ce != fe {
				t.Fatalf("profile %s body %q agent %q: restriction cached=(%v,%v) fresh=(%v,%v)", p.Name, body, ua, cl, ce, fl, fe)
			}
			for _, path := range paths {
				if got, want := ca.Allowed(path), fa.Allowed(path); got != want {
					t.Fatalf("profile %s body %q agent %q path %q: cached=%v fresh=%v", p.Name, body, ua, path, got, want)
				}
			}
		}
	})
}
