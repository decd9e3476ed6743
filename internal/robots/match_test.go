package robots

import (
	"strings"
	"testing"
	"testing/quick"
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
