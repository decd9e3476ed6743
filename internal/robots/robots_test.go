package robots

import (
	"strings"
	"testing"
)

// figure1 is the example robots.txt from Figure 1 of the paper.
const figure1 = `# An example robots.txt file
User-agent: Googlebot
Allow: /

User-agent: ChatGPT-User
User-agent: GPTBot
Disallow: /

User-agent: *
Disallow: /secret/
`

func TestFigure1Example(t *testing.T) {
	rb := ParseString(figure1)
	if len(rb.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(rb.Groups))
	}
	if !rb.Allowed("Googlebot", "/anything") {
		t.Error("Googlebot must be allowed everywhere")
	}
	for _, ua := range []string{"ChatGPT-User", "GPTBot"} {
		if rb.Allowed(ua, "/") || rb.Allowed(ua, "/art/page.html") {
			t.Errorf("%s must be fully disallowed", ua)
		}
	}
	// Other crawlers: only /secret/ blocked.
	if rb.Allowed("SomeBot", "/secret/file") {
		t.Error("wildcard group must block /secret/")
	}
	if !rb.Allowed("SomeBot", "/public") {
		t.Error("wildcard group must allow /public")
	}
	// Categorization matches the paper's reading of the figure.
	if got := rb.Restriction("GPTBot"); got != FullyDisallowed {
		t.Errorf("GPTBot restriction = %v", got)
	}
	if got := rb.Restriction("Googlebot"); got != unrestricted {
		t.Errorf("Googlebot restriction = %v", got)
	}
	if got := rb.Restriction("SomeBot"); got != PartiallyDisallowed {
		t.Errorf("SomeBot restriction = %v", got)
	}
}

// Appendix B.2 case 1: comments and blank lines inside a group must not
// detach the rules that follow them.
func TestEdgeCaseCommentsInsideGroup(t *testing.T) {
	body := `User-agent: *
# Blog restrictions
Disallow: /blog/latest/*
Disallow: /blogs/*
`
	rb := ParseString(body)
	if rb.Allowed("AnyBot", "/blogs/march") {
		t.Error("compliant parser must keep rules after a comment line")
	}
	if !rb.Allowed("AnyBot", "/shop") {
		t.Error("unrelated path must stay allowed")
	}

	// The buggy profile drops the rules: everything is allowed.
	buggy := ParseStringProfile(strings.Replace(body, "# Blog restrictions", "\n# Blog restrictions\n", 1), ProfileLegacyBuggy)
	if !buggy.Allowed("AnyBot", "/blogs/march") {
		t.Error("buggy profile should orphan rules after blank lines")
	}
}

// Appendix B.2 case 2: consecutive User-agent lines form one group.
func TestEdgeCaseGroupedAgents(t *testing.T) {
	body := `User-agent: GPTBot
User-agent: anthropic-ai
User-agent: Claudebot
Disallow: /
`
	rb := ParseString(body)
	for _, ua := range []string{"GPTBot", "anthropic-ai", "Claudebot"} {
		if rb.Allowed(ua, "/") {
			t.Errorf("%s must be disallowed by the shared group", ua)
		}
		if got := rb.Restriction(ua); got != FullyDisallowed {
			t.Errorf("%s restriction = %v, want fully disallowed", ua, got)
		}
	}
	// Buggy last-agent-wins parser only restricts Claudebot.
	buggy := ParseStringProfile(body, ProfileLegacyBuggy)
	if buggy.Allowed("Claudebot", "/") {
		t.Error("buggy parser must still restrict the last agent")
	}
	if !buggy.Allowed("GPTBot", "/") {
		t.Error("buggy parser must lose the first grouped agents")
	}
}

// Appendix B.2 case 3: Crawl-delay is transparent, so the two User-agent
// lines around it merge into one group under a compliant parser.
func TestEdgeCaseCrawlDelayGrouping(t *testing.T) {
	body := `User-agent: *
Disallow: /

User-agent: *
Crawl-delay: 5
User-agent: GoogleBot
Allow: /
Disallow: /z/
`
	rb := ParseString(body)
	// GoogleBot's group is {*, GoogleBot} with Allow:/ Disallow:/z/.
	if !rb.Allowed("GoogleBot", "/anything") {
		t.Error("GoogleBot must be allowed outside /z/")
	}
	if rb.Allowed("GoogleBot", "/z/secret") {
		t.Error("GoogleBot must be disallowed under /z/")
	}
	// Any other bot merges both wildcard groups: Disallow:/ + Allow:/ +
	// Disallow:/z/. For "/x": Allow:/ ties Disallow:/ at length 1 → allow.
	if !rb.Allowed("OtherBot", "/x") {
		t.Error("tie between Allow:/ and Disallow:/ must favor allow")
	}
	if rb.Allowed("OtherBot", "/z/secret") {
		t.Error("/z/ must stay disallowed for other bots")
	}

	// A parser that honors crawl-delay as a member directive does NOT
	// group GoogleBot with the second wildcard group.
	classic := ParseStringProfile(body, ProfileClassic1994)
	var googleGroup *Group
	for i := range classic.Groups {
		for _, a := range classic.Groups[i].Agents {
			if a == "GoogleBot" {
				googleGroup = &classic.Groups[i]
			}
		}
	}
	if googleGroup == nil {
		t.Fatal("classic profile lost the GoogleBot group")
	}
	if len(googleGroup.Agents) != 1 {
		t.Errorf("classic profile grouped agents %v, want GoogleBot alone",
			googleGroup.Agents)
	}
}

func TestRuleMerging(t *testing.T) {
	// RFC 9309: multiple groups naming the same token are merged.
	body := `User-agent: GPTBot
Disallow: /a/

User-agent: GPTBot
Disallow: /b/
`
	rb := ParseString(body)
	if rb.Allowed("GPTBot", "/a/x") || rb.Allowed("GPTBot", "/b/x") {
		t.Error("rules from both GPTBot groups must merge")
	}
	if !rb.Allowed("GPTBot", "/c/x") {
		t.Error("unlisted path must stay allowed")
	}
}

func TestLongestMatchPrecedence(t *testing.T) {
	body := `User-agent: *
Disallow: /shop
Allow: /shop/public
`
	rb := ParseString(body)
	if rb.Allowed("Bot", "/shop/cart") {
		t.Error("/shop/cart must be disallowed")
	}
	if !rb.Allowed("Bot", "/shop/public/item") {
		t.Error("longer Allow must beat shorter Disallow")
	}

	// First-match precedence flips the outcome when order favors disallow.
	classic := ParseStringProfile(body, ProfileClassic1994)
	if classic.Allowed("Bot", "/shop/public/item") {
		t.Error("first-match profile must stop at Disallow: /shop")
	}
}

func TestWildcardPatterns(t *testing.T) {
	body := `User-agent: *
Disallow: /*.php
Disallow: /private*/data
Disallow: /exact$
`
	rb := ParseString(body)
	cases := []struct {
		path string
		want bool // allowed?
	}{
		{"/index.php", false},
		{"/deep/down/page.php?q=1", false},
		{"/index.html", true},
		{"/private2024/data", false},
		{"/private/data", false},
		{"/privat/data", true},
		{"/exact", false},
		{"/exactly", true}, // '$' anchors
		{"/exact/", true},
	}
	for _, c := range cases {
		if got := rb.Allowed("Bot", c.path); got != c.want {
			t.Errorf("Allowed(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestEmptyDisallowMeansAllowAll(t *testing.T) {
	body := `User-agent: GPTBot
Disallow:
`
	rb := ParseString(body)
	if !rb.Allowed("GPTBot", "/anything") {
		t.Error("empty Disallow must not restrict")
	}
	if got := rb.Restriction("GPTBot"); got != unrestricted {
		t.Errorf("restriction = %v, want unrestricted", got)
	}
	// But the group is still explicit.
	if _, explicit := rb.ExplicitRestriction("GPTBot"); !explicit {
		t.Error("empty-disallow group is still an explicit group")
	}
}

func TestRobotsTxtItselfAlwaysAllowed(t *testing.T) {
	rb := ParseString("User-agent: *\nDisallow: /\n")
	if !rb.Allowed("AnyBot", "/robots.txt") {
		t.Error("/robots.txt must always be fetchable")
	}
}

func TestCaseInsensitiveAgentMatch(t *testing.T) {
	rb := ParseString("User-agent: gptbot\nDisallow: /\n")
	if rb.Allowed("GPTBot/1.0 (+https://openai.com)", "/") {
		t.Error("agent match must be case-insensitive and token-based")
	}
	// The buggy case-sensitive profile misses it.
	buggy := ParseStringProfile("User-agent: gptbot\nDisallow: /\n", ProfileLegacyBuggy)
	if !buggy.Allowed("GPTBot", "/") {
		t.Error("case-sensitive profile must fail to match GPTBot")
	}
}

func TestHierarchicalAgentMatch(t *testing.T) {
	rb := ParseString("User-agent: Googlebot\nDisallow: /\n")
	if rb.Allowed("Googlebot-News", "/x") {
		t.Error("googlebot group must govern googlebot-news")
	}
	// But not the other way around, and not mid-token.
	rb2 := ParseString("User-agent: Googlebot-News\nDisallow: /\n")
	if !rb2.Allowed("Googlebot", "/x") {
		t.Error("more specific group must not govern the generic token")
	}
	rb3 := ParseString("User-agent: Google\nDisallow: /\n")
	if !rb3.Allowed("Googlebot", "/x") {
		t.Error("prefix without '-' boundary must not match")
	}
	// Strict RFC profile: exact only.
	strict := ParseStringProfile("User-agent: Googlebot\nDisallow: /\n", ProfileStrictRFC)
	if !strict.Allowed("Googlebot-News", "/x") {
		t.Error("strict profile must not match hierarchically")
	}
}

func TestMostSpecificGroupWins(t *testing.T) {
	body := `User-agent: Googlebot
Disallow: /generic/

User-agent: Googlebot-News
Disallow: /news-only/
`
	rb := ParseString(body)
	// Googlebot-News is governed only by its most specific group.
	if rb.Allowed("Googlebot-News", "/news-only/x") {
		t.Error("specific group must apply")
	}
	if !rb.Allowed("Googlebot-News", "/generic/x") {
		t.Error("generic group must not apply when a specific one exists")
	}
}

func TestWildcardFallback(t *testing.T) {
	body := `User-agent: SomethingElse
Disallow: /else/

User-agent: *
Disallow: /all/
`
	rb := ParseString(body)
	acc := rb.Agent("GPTBot")
	if acc.Explicit {
		t.Error("GPTBot has no explicit group here")
	}
	if acc.Allowed("/all/x") {
		t.Error("wildcard rules must govern unmatched agents")
	}
	if !acc.Allowed("/else/x") {
		t.Error("another agent's rules must not leak")
	}
}

func TestRuleOutsideGroupIgnored(t *testing.T) {
	body := "Disallow: /orphan/\nUser-agent: *\nDisallow: /real/\n"
	rb := ParseString(body)
	if rb.Allowed("Bot", "/real/x") {
		t.Error("in-group rule must apply")
	}
	if !rb.Allowed("Bot", "/orphan/x") {
		t.Error("orphan rule must be ignored")
	}
	found := false
	for _, w := range rb.Warnings {
		if w.Code == warnRuleOutsideGroup {
			found = true
		}
	}
	if !found {
		t.Error("orphan rule must be warned about")
	}
}

func TestSitemapAndExtensions(t *testing.T) {
	body := `Sitemap: https://example.com/sitemap.xml
User-agent: *
Crawl-delay: 10
Disallow: /x/
Host: example.com
`
	rb := ParseString(body)
	if len(rb.Sitemaps) != 1 || rb.Sitemaps[0] != "https://example.com/sitemap.xml" {
		t.Errorf("sitemaps = %v", rb.Sitemaps)
	}
	if delay, ok := rb.CrawlDelay("AnyBot"); !ok || delay != "10" {
		t.Errorf("crawl delay = %q, %v", delay, ok)
	}
	// Sitemap must not have broken the group: Disallow applies.
	if rb.Allowed("Bot", "/x/1") {
		t.Error("group must survive interleaved extensions")
	}
}

func TestCrawlDelayPerAgent(t *testing.T) {
	body := `User-agent: SlowBot
Crawl-delay: 30
Disallow:

User-agent: *
Crawl-delay: 5
`
	rb := ParseString(body)
	if d, ok := rb.CrawlDelay("SlowBot"); !ok || d != "30" {
		t.Errorf("SlowBot delay = %q, %v", d, ok)
	}
	if d, ok := rb.CrawlDelay("FastBot"); !ok || d != "5" {
		t.Errorf("FastBot delay = %q, %v (want wildcard 5)", d, ok)
	}
}

func TestAgentTokens(t *testing.T) {
	rb := ParseString(figure1)
	toks := rb.AgentTokens()
	want := []string{"Googlebot", "ChatGPT-User", "GPTBot"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", toks, want)
		}
	}
}

func TestExplicitlyAllows(t *testing.T) {
	body := `User-agent: GPTBot
Allow: /

User-agent: *
Disallow: /
`
	rb := ParseString(body)
	if !rb.ExplicitlyAllows("GPTBot") {
		t.Error("explicit Allow: / group must count as invitation")
	}
	if rb.ExplicitlyAllows("CCBot") {
		t.Error("CCBot has no explicit allow")
	}
	// A disallow that negates the allow cancels the invitation.
	rb2 := ParseString("User-agent: GPTBot\nAllow: /\nDisallow: /*\n")
	// Allow:/ (len 1) vs Disallow:/* (len 2) → disallow wins on "/".
	if rb2.ExplicitlyAllows("GPTBot") {
		t.Error("negated allow must not count")
	}
}

func TestWildcardFullDisallow(t *testing.T) {
	if !ParseString("User-agent: *\nDisallow: /\n").WildcardFullDisallow() {
		t.Error("blanket disallow not detected")
	}
	if ParseString("User-agent: *\nDisallow: /x/\n").WildcardFullDisallow() {
		t.Error("partial wildcard disallow misdetected as full")
	}
	if ParseString("User-agent: GPTBot\nDisallow: /\n").WildcardFullDisallow() {
		t.Error("explicit group misdetected as wildcard")
	}
}

func TestLint(t *testing.T) {
	body := `User-agent: *
Disallow: secret/
Noai: true
Disallow: /ok/
`
	rep := Lint(body)
	if rep.Mistakes != 2 {
		t.Fatalf("mistakes = %d, want 2 (relative path + unknown directive): %v",
			rep.Mistakes, rep.Warnings)
	}
	if rep.Groups != 1 || rep.Rules != 2 {
		t.Fatalf("groups=%d rules=%d", rep.Groups, rep.Rules)
	}
}

func TestLintCleanFile(t *testing.T) {
	rep := Lint(figure1)
	if rep.Mistakes != 0 {
		t.Fatalf("figure 1 must lint clean, got %v", rep.Warnings)
	}
}

func TestWarningStrings(t *testing.T) {
	w := Warning{Line: 3, Code: warnPathNotAbsolute, Detail: "secret/"}
	if got := w.String(); !strings.Contains(got, "line 3") || !strings.Contains(got, "path-not-absolute") {
		t.Errorf("warning string = %q", got)
	}
	codes := []WarningCode{
		warnUnknownDirective, warnRuleOutsideGroup, warnPathNotAbsolute,
		warnEmptyUserAgent, warnMissingColon, warnNonCanonicalKey,
		warnDirectiveTypo, warnCrawlDelay, warnTruncated, WarningCode(99),
	}
	seen := map[string]bool{}
	for _, c := range codes {
		s := c.String()
		if s == "" {
			t.Errorf("code %d has empty string", c)
		}
		if seen[s] && s != "unknown" {
			t.Errorf("duplicate code string %q", s)
		}
		seen[s] = true
	}
}

func TestDirectiveTypos(t *testing.T) {
	rb := ParseString("User-agent: *\nDissallow: /x/\n")
	if rb.Allowed("Bot", "/x/1") {
		t.Error("tolerated typo must still create the rule")
	}
	if !rb.HasMistakes() {
		t.Error("typo must be flagged as a mistake")
	}
}

func TestCRLFAndBareCR(t *testing.T) {
	rb := ParseString("User-agent: *\r\nDisallow: /a/\rDisallow: /b/\n")
	if rb.Allowed("Bot", "/a/x") || rb.Allowed("Bot", "/b/x") {
		t.Error("CRLF and bare-CR line endings must both split lines")
	}
}

func TestBOMStripped(t *testing.T) {
	rb := ParseString("\ufeffUser-agent: *\nDisallow: /\n")
	if rb.Allowed("Bot", "/") {
		t.Error("UTF-8 BOM must not corrupt the first directive")
	}
}

func TestInlineComments(t *testing.T) {
	rb := ParseString("User-agent: * # everyone\nDisallow: /a/ # keep out\n")
	if rb.Allowed("Bot", "/a/x") {
		t.Error("inline comments must be stripped")
	}
	if !rb.Allowed("Bot", "/b/") {
		t.Error("comment text must not become part of the pattern")
	}
}

func TestTruncationAtMaxSize(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("User-agent: *\nDisallow: /early/\n")
	filler := strings.Repeat("# padding comment line to inflate the file\n", 1+maxSize/40)
	sb.WriteString(filler)
	sb.WriteString("User-agent: LateBot\nDisallow: /\n")
	rb := ParseString(sb.String())
	if !rb.Truncated {
		t.Fatal("oversized input must be marked truncated")
	}
	if rb.Allowed("AnyBot", "/early/x") {
		t.Error("rules before the cap must survive")
	}
	if !rb.Allowed("LateBot", "/anything") {
		t.Error("rules after the cap must be discarded")
	}
}

func TestEmptyAndCommentOnlyFiles(t *testing.T) {
	for _, body := range []string{"", "\n\n", "# nothing here\n# at all\n"} {
		rb := ParseString(body)
		if len(rb.Groups) != 0 {
			t.Errorf("%q: groups = %d", body, len(rb.Groups))
		}
		if !rb.Allowed("AnyBot", "/x") {
			t.Errorf("%q: empty file must allow everything", body)
		}
		if got := rb.Restriction("AnyBot"); got != unrestricted {
			t.Errorf("%q: restriction = %v", body, got)
		}
	}
}

func TestMissingColonWarning(t *testing.T) {
	rb := ParseString("User-agent *\nDisallow: /\n")
	var found bool
	for _, w := range rb.Warnings {
		if w.Code == warnMissingColon {
			found = true
		}
	}
	if !found {
		t.Error("line without colon must warn")
	}
}

func TestEmptyUserAgentWarning(t *testing.T) {
	rb := ParseString("User-agent:\nDisallow: /\n")
	var found bool
	for _, w := range rb.Warnings {
		if w.Code == warnEmptyUserAgent {
			found = true
		}
	}
	if !found {
		t.Error("empty user-agent must warn")
	}
	// The orphan Disallow is also flagged.
	if !rb.HasMistakes() {
		t.Error("file must have mistakes")
	}
}

func TestExplicitRestriction(t *testing.T) {
	body := `User-agent: *
Disallow: /

User-agent: GPTBot
Disallow: /models/
`
	rb := ParseString(body)
	lvl, explicit := rb.ExplicitRestriction("GPTBot")
	if !explicit || lvl != PartiallyDisallowed {
		t.Errorf("GPTBot explicit = %v %v", lvl, explicit)
	}
	_, explicit = rb.ExplicitRestriction("CCBot")
	if explicit {
		t.Error("CCBot is only covered by wildcard; not explicit")
	}
	// Restriction (non-explicit) still sees the wildcard full disallow.
	if got := rb.Restriction("CCBot"); got != FullyDisallowed {
		t.Errorf("CCBot overall restriction = %v", got)
	}
}

func TestPartialWithAllowOverride(t *testing.T) {
	body := `User-agent: GPTBot
Disallow: /
Allow: /public/
`
	rb := ParseString(body)
	if got := rb.Restriction("GPTBot"); got != PartiallyDisallowed {
		t.Errorf("restriction = %v, want partial (allow carve-out)", got)
	}
	if !rb.Allowed("GPTBot", "/public/art.png") {
		t.Error("carve-out must be allowed")
	}
	if rb.Allowed("GPTBot", "/private/x") {
		t.Error("rest must stay disallowed")
	}
}

func TestLevelStrings(t *testing.T) {
	for lvl, want := range map[Level]string{
		noRobotsFile:        "no robots.txt",
		unrestricted:        "no restrictions",
		PartiallyDisallowed: "partially disallowed",
		FullyDisallowed:     "fully disallowed",
		Level(42):           "unknown",
	} {
		if got := lvl.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", lvl, got, want)
		}
	}
	if noRobotsFile.Restricted() || unrestricted.Restricted() {
		t.Error("unrestricted levels must not report Restricted")
	}
	if !PartiallyDisallowed.Restricted() || !FullyDisallowed.Restricted() {
		t.Error("disallowed levels must report Restricted")
	}
}
