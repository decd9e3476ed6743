package robots

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/useragent"
)

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		// Prefix semantics.
		{"/", "/", true},
		{"/", "/anything/else", true},
		{"/fish", "/fish", true},
		{"/fish", "/fish.html", true},
		{"/fish", "/fishheads/yummy.html", true},
		{"/fish", "/Fish.asp", false}, // case-sensitive paths
		{"/fish", "/catfish", false},
		{"/fish/", "/fish/salmon.htm", true},
		{"/fish/", "/fish", false},
		// Wildcards (examples from Google's reference docs).
		{"/fish*", "/fish.html", true},
		{"/fish*", "/fishheads", true},
		{"*/fish", "/a/fish", true},
		{"/*.php", "/index.php", true},
		{"/*.php", "/folder/filename.php?parameters", true},
		{"/*.php", "/index.html", false},
		{"/*.php", "/php/", false},
		{"/a*b*c", "/aXXbYYc", true},
		{"/a*b*c", "/acb", false},
		// End anchor.
		{"/*.php$", "/filename.php", true},
		{"/*.php$", "/filename.php?parameters", false},
		{"/*.php$", "/filename.php5", false},
		{"/fish$", "/fish", true},
		{"/fish$", "/fish.html", false},
		// '$' only anchors at the end; a lone "$" matches empty prefix of
		// nothing — the empty pattern case is filtered before matching.
		{"/$", "/", true},
		{"/$", "/x", false},
		// Stars collapsing.
		{"/**", "/x", true},
		{"/*/", "/a/", true},
		{"/*/", "/a", false},
	}
	for _, c := range cases {
		if got := MatchPattern(c.pattern, c.path); got != c.want {
			t.Errorf("MatchPattern(%q, %q) = %v, want %v",
				c.pattern, c.path, got, c.want)
		}
	}
}

func TestMatchFullBacktracking(t *testing.T) {
	// Pathological backtracking input must still complete and be correct.
	pattern := strings.Repeat("*a", 20)
	path := "/" + strings.Repeat("a", 40)
	if !matchFull("*"+pattern, path, true) {
		t.Error("repeated-star pattern should match the run of a's")
	}
	if matchFull("*"+pattern+"b", path, true) {
		t.Error("trailing literal not in path must fail")
	}
}

func TestNormalizePath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/a%2fb", "/a%2Fb"},
		{"/a%2Fb", "/a%2Fb"},
		{"/plain", "/plain"},
		{"/with space", "/with%20space"},
		{"/caf\xc3\xa9", "/caf%C3%A9"},
		{"/bad%zz", "/bad%zz"}, // invalid triplet left alone
		{"/trail%2", "/trail%2"},
	}
	for _, c := range cases {
		if got := normalizePath(c.in); got != c.want {
			t.Errorf("normalizePath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPercentEncodingEquivalence(t *testing.T) {
	rb := ParseString("User-agent: *\nDisallow: /caf%c3%a9/\n")
	if rb.Allowed("Bot", "/caf%C3%A9/menu") {
		t.Error("differently-cased percent escapes must compare equal")
	}
	if rb.Allowed("Bot", "/café/menu") {
		t.Error("raw UTF-8 path must normalize to the encoded pattern")
	}
}

func TestEmptyPathDefaultsToRoot(t *testing.T) {
	rb := ParseString("User-agent: *\nDisallow: /\n")
	if acc := rb.Agent("Bot"); acc.Allowed("") {
		t.Error("empty path must be treated as /")
	}
}

// Property: a pattern always matches itself when it contains no
// metacharacters (a pattern is a prefix of itself).
func TestMatchSelfProperty(t *testing.T) {
	f := func(s string) bool {
		p := "/" + strings.NewReplacer("*", "", "$", "", "#", "").Replace(s)
		return MatchPattern(p, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: prefix monotonicity — if a metacharacter-free pattern matches
// a path, it matches every extension of that path.
func TestMatchPrefixMonotonic(t *testing.T) {
	f := func(a, b string) bool {
		clean := func(s string) string {
			return strings.NewReplacer("*", "", "$", "", "#", "").Replace(s)
		}
		p := "/" + clean(a)
		path := p + clean(b)
		return MatchPattern(p, path)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalizePath is idempotent.
func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := normalizePath(s)
		return normalizePath(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a disallow rule never makes a previously-disallowed
// path allowed (restriction monotonicity under longest-match precedence
// holds when the added rule is a Disallow at least as long as any allow).
func TestDisallowMonotonicityOnRoot(t *testing.T) {
	f := func(raw string) bool {
		seg := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return -1
		}, raw)
		base := "User-agent: *\nDisallow: /" + seg + "\n"
		rb := ParseString(base)
		if rb.Allowed("Bot", "/"+seg) {
			return false
		}
		// Appending another disallow cannot re-allow it.
		rb2 := ParseString(base + "Disallow: /other\n")
		return !rb2.Allowed("Bot", "/"+seg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the builder's output parses back to the same access decisions.
func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Comment("generated")
	b.Group("GPTBot", "CCBot").DisallowAll()
	b.Group("Googlebot").AllowAll().Disallow("/private/")
	b.Group("*").Disallow("/secret/")
	b.Sitemap("https://example.com/sitemap.xml")
	rb := ParseString(b.String())

	if rb.Allowed("GPTBot", "/") || rb.Allowed("CCBot", "/art") {
		t.Error("grouped disallow lost in round trip")
	}
	if !rb.Allowed("Googlebot", "/ok") || rb.Allowed("Googlebot", "/private/x") {
		t.Error("google group lost in round trip")
	}
	if rb.Allowed("Other", "/secret/x") || !rb.Allowed("Other", "/open") {
		t.Error("wildcard group lost in round trip")
	}
	if len(rb.Sitemaps) != 1 {
		t.Error("sitemap lost in round trip")
	}
	if rb.HasMistakes() {
		t.Errorf("builder output must lint clean: %v", rb.Warnings)
	}
}

func TestBuilderCrawlDelayAndRaw(t *testing.T) {
	b := NewBuilder()
	b.Group("SlowBot").CrawlDelay("15").Disallow("/x/")
	b.Raw("Bogus-directive: yes")
	body := b.String()
	rb := ParseString(body)
	if d, ok := rb.CrawlDelay("SlowBot"); !ok || d != "15" {
		t.Errorf("crawl delay round trip = %q, %v", d, ok)
	}
	if !rb.HasMistakes() {
		t.Error("raw bogus directive must lint dirty")
	}
}

func TestBuilderEmpty(t *testing.T) {
	if got := NewBuilder().String(); got != "" {
		t.Errorf("empty builder = %q", got)
	}
}

func TestGroupBuilderChaining(t *testing.T) {
	b := NewBuilder()
	b.Group("A").Disallow("/a/").
		Group("B").allow("/b/")
	s := b.Sitemap("https://x/s.xml").String()
	rb := ParseString(s)
	if rb.Allowed("A", "/a/1") {
		t.Error("chained group A lost")
	}
	if len(rb.Sitemaps) != 1 {
		t.Error("chained sitemap lost")
	}
}

// referenceAccess is group selection done from scratch for one query,
// the oracle for Agent's view table: a first pass over the groups finds
// the longest group name that governs ua's token, a second merges, in
// file order, the rules of every group naming a governing name of that
// length. Without such a name the wildcard groups' rules merge.
func referenceAccess(rb *Robots, ua string) Access {
	token := useragent.ExtractToken(ua)
	acc := Access{firstMatchPrecedence: rb.profile.FirstMatchPrecedence}

	best := -1
	for gi := range rb.Groups {
		for _, a := range rb.Groups[gi].Agents {
			name := useragent.ExtractToken(a)
			if name == "" || useragent.IsWildcard(a) {
				continue
			}
			if rb.agentNameMatches(name, token) && len(name) > best {
				best = len(name)
			}
		}
	}
	if best >= 0 {
		acc.Explicit = true
		for gi := range rb.Groups {
			g := &rb.Groups[gi]
			matched := false
			for _, a := range g.Agents {
				name := useragent.ExtractToken(a)
				if name == "" || useragent.IsWildcard(a) || len(name) != best {
					continue
				}
				if !rb.agentNameMatches(name, token) {
					continue
				}
				matched = true
				if lower := strings.ToLower(name); !slices.Contains(acc.MatchedAgents, lower) {
					acc.MatchedAgents = append(acc.MatchedAgents, lower)
				}
			}
			if matched {
				acc.rules = append(acc.rules, g.Rules...)
			}
		}
		acc.normalizeRules()
		return acc
	}
	for gi := range rb.Groups {
		g := &rb.Groups[gi]
		for _, a := range g.Agents {
			if useragent.IsWildcard(a) {
				acc.rules = append(acc.rules, g.Rules...)
				break
			}
		}
	}
	if len(acc.rules) > 0 {
		acc.MatchedAgents = []string{"*"}
	}
	acc.normalizeRules()
	return acc
}

// viewTableBody names hierarchical and case-variant groups: googlebot
// and googlebot-news are two classes under every profile, a-b and A-B
// one class unless agents match case-sensitively.
const viewTableBody = "User-agent: googlebot\nDisallow: /g/\n\n" +
	"User-agent: GoogleBot-News\nDisallow: /news/\n\n" +
	"User-agent: a-b\nDisallow: /ab/\n\n" +
	"User-agent: A-B\nAllow: /ab/open\nDisallow: /AB/\n\n" +
	"User-agent: *\nDisallow: /private/\n"

// FuzzAgentMatchesReference checks Agent's view table against
// referenceAccess on arbitrary bodies under every profile: for the
// fuzzed agent, every group name in the body, its case variants and
// hierarchical extensions, the views must agree on Explicit,
// MatchedAgents, the merged rules and Allowed for every rule path.
func FuzzAgentMatchesReference(f *testing.F) {
	profiles := []Profile{ProfileGoogle, ProfileStrictRFC, ProfileLegacyBuggy, ProfileClassic1994}
	for _, seed := range []struct{ body, ua string }{
		{viewTableBody, "GoogleBot-News/2.1"},
		{viewTableBody, "a-b-c"},
		{"User-agent: googlebot\nUser-agent: GOOGLEBOT\nDisallow: /x\nUser-agent: googlebot-news\nAllow: /x\n", "Googlebot-News-Lite"},
		{"User-agent: A-B\nDisallow: /\n\nUser-agent: a-b\nAllow: /\n\nUser-agent: *\nUser-agent: a\nDisallow: /w\n", "a-B"},
		{"User-agent: *\nDisallow: /\nCrawl-delay: 5\nUser-agent: Bot\nAllow: /\n", "Mozilla/5.0 (compatible; Bot/1.0)"},
		{"", ""},
	} {
		for i := range profiles {
			f.Add(seed.body, uint8(i), seed.ua)
		}
	}
	fixedPaths := []string{"/", "/x", "/g/1", "/news/", "/ab/open", "/AB/", "/private/p", "/robots.txt"}
	f.Fuzz(func(t *testing.T, body string, profile uint8, ua string) {
		p := profiles[int(profile)%len(profiles)]
		rb := ParseStringProfile(body, p)
		agents := []string{ua, "RandomBot"}
		paths := fixedPaths
		for _, g := range rb.Groups {
			for _, a := range g.Agents {
				agents = append(agents, a, strings.ToUpper(a), strings.ToLower(a), a+"-x", strings.ToUpper(a)+"-Y/1.0")
			}
			for _, r := range g.Rules {
				paths = append(paths, r.Path, r.Path+"x")
			}
		}
		for _, a := range agents {
			got, want := rb.Agent(a), referenceAccess(rb, a)
			if got.Explicit != want.Explicit || !slices.Equal(got.MatchedAgents, want.MatchedAgents) || !slices.Equal(got.rules, want.rules) {
				t.Fatalf("profile %s body %q agent %q: view (%v, %q, %v), reference (%v, %q, %v)",
					p.Name, body, a, got.Explicit, got.MatchedAgents, got.rules, want.Explicit, want.MatchedAgents, want.rules)
			}
			for _, path := range paths {
				if g, w := got.Allowed(path), want.Allowed(path); g != w {
					t.Fatalf("profile %s body %q agent %q path %q: Allowed %v, reference %v", p.Name, body, a, path, g, w)
				}
			}
		}
	})
}

// TestViewTableBounded pins the table's size to the body's group-name
// classes plus the wildcard fallback, however many distinct agents
// query it, and checks that Agent answers them without allocating.
func TestViewTableBounded(t *testing.T) {
	for _, c := range []struct {
		p     Profile
		views int
	}{
		{ProfileGoogle, 4},      // googlebot, googlebot-news, a-b, *
		{ProfileLegacyBuggy, 5}, // A-B is its own class
	} {
		rb := ParseStringProfile(viewTableBody, c.p)
		agents := make([]string, 2001)
		for i := range agents {
			agents[i] = fmt.Sprintf("%s-%d/1.0", []string{"googlebot-news", "A-B", "Other"}[i%3], i)
		}
		rb.Agent(agents[0])
		i := 1
		if allocs := testing.AllocsPerRun(len(agents)-2, func() {
			rb.Agent(agents[i])
			i++
		}); allocs != 0 {
			t.Errorf("%s: Agent allocated %v/op", c.p.Name, allocs)
		}
		if len(rb.views) != c.views {
			t.Errorf("%s: %d views after %d agents, want %d", c.p.Name, len(rb.views), len(agents), c.views)
		}
		for _, a := range agents {
			v := rb.Agent(a)
			if !inTable(rb, v) {
				t.Fatalf("%s: Agent(%q) is not a view of the table", c.p.Name, a)
			}
		}
		same := rb.Agent("a-b") == rb.Agent("A-B")
		if same == c.p.CaseSensitiveAgents {
			t.Errorf("%s: a-b and A-B share a view = %v", c.p.Name, same)
		}
	}
}

// inTable reports whether v points into rb's view table.
func inTable(rb *Robots, v *Access) bool {
	for i := range rb.views {
		if &rb.views[i] == v {
			return true
		}
	}
	return false
}

// TestViewTableConcurrentFirstUse races the table's build: goroutines
// that all reach a fresh *Robots at once must each get the reference
// view (run under -race).
func TestViewTableConcurrentFirstUse(t *testing.T) {
	agents := []string{"Googlebot-News", "googlebot", "a-b", "A-B", "Other", "googlebot-news-lite"}
	for _, p := range []Profile{ProfileGoogle, ProfileLegacyBuggy} {
		rb := ParseStringProfile(viewTableBody, p)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(a string) {
				defer wg.Done()
				got, want := rb.Agent(a), referenceAccess(rb, a)
				if got.Explicit != want.Explicit || !slices.Equal(got.rules, want.rules) {
					t.Errorf("%s agent %q: view (%v, %v), reference (%v, %v)", p.Name, a, got.Explicit, got.rules, want.Explicit, want.rules)
				}
			}(agents[g%len(agents)])
		}
		wg.Wait()
	}
}
