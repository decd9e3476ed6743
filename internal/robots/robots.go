// Package robots implements the Robots Exclusion Protocol (RFC 9309).
//
// The paper's measurements all hinge on interpreting robots.txt exactly the
// way production crawlers do. Its authors used Google's C++ parser after
// finding that home-grown parsers are error-prone (§3.1, footnote 3); this
// package reimplements those semantics in Go:
//
//   - multiple consecutive User-agent lines form one group (App. B.2 case 2);
//   - comments, blank lines and unsupported directives such as Crawl-delay
//     are transparent to grouping (App. B.2 cases 1 and 3);
//   - rules for the same product token in different groups are merged
//     (RFC 9309 §2.2.1);
//   - the most specific matching rule wins, with Allow beating Disallow on
//     ties (RFC 9309 §2.2.2);
//   - patterns support the '*' wildcard and the '$' end anchor;
//   - user-agent matching is case-insensitive on product tokens, with
//     hierarchical specificity ("googlebot" governs "googlebot-news" when
//     no more specific group exists).
//
// Known-buggy interpretations studied in the paper (§8.1: the parser of
// [70] treats User-agent lines case-sensitively and keeps only the last of
// a run of grouped User-agent lines) are available as parse Profiles so the
// ablation benchmarks can quantify the resulting measurement error.
package robots

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/useragent"
)

// maxSize is the number of robots.txt bytes a compliant crawler must
// process (RFC 9309 §2.5: at least 500 KiB). Input beyond this limit is
// discarded and the result is marked Truncated.
const maxSize = 500 * 1024

// Profile selects the interpretation semantics used by Parse. The zero
// value is the Google-compatible default; the bug flags reproduce the
// non-compliant parsers discussed in §8.1 and Appendix B.2 of the paper.
type Profile struct {
	// Name identifies the profile in reports.
	Name string

	// CaseSensitiveAgents matches User-agent group names case-sensitively,
	// a bug the paper estimates caused ~10% parse error in prior work.
	CaseSensitiveAgents bool

	// LastAgentWins keeps only the final User-agent line of a consecutive
	// run instead of grouping them (App. B.2 case 2 divergence).
	LastAgentWins bool

	// BlankLineBreaksGroups terminates a group at blank or comment lines,
	// orphaning rules that follow (App. B.2 case 1 divergence).
	BlankLineBreaksGroups bool

	// CrawlDelayBreaksGroups treats Crawl-delay as a group member
	// directive, so a User-agent line after it starts a fresh group
	// (App. B.2 case 3 divergence).
	CrawlDelayBreaksGroups bool

	// StrictTokenMatch disables hierarchical (prefix-at-dash) user agent
	// matching and requires exact token equality, per a literal reading of
	// RFC 9309.
	StrictTokenMatch bool

	// FirstMatchPrecedence applies rules in file order instead of
	// longest-match precedence, as the original 1994 REP draft did.
	FirstMatchPrecedence bool
}

// Predefined profiles.
var (
	// ProfileGoogle is the default, Google-parser-compatible profile the
	// paper's measurements rely on.
	ProfileGoogle = Profile{Name: "google"}
	// ProfileStrictRFC is RFC 9309 with exact product-token matching.
	ProfileStrictRFC = Profile{Name: "strict-rfc", StrictTokenMatch: true}
	// ProfileLegacyBuggy reproduces the accumulated bugs of the parser
	// used by prior work [70]: case-sensitive agents, last-agent-wins
	// grouping, and blank lines breaking groups.
	ProfileLegacyBuggy = Profile{
		Name:                  "legacy-buggy",
		CaseSensitiveAgents:   true,
		LastAgentWins:         true,
		BlankLineBreaksGroups: true,
	}
	// ProfileClassic1994 reproduces the original REP draft: first match
	// wins and crawl-delay is an honored member directive.
	ProfileClassic1994 = Profile{
		Name:                   "classic-1994",
		CrawlDelayBreaksGroups: true,
		FirstMatchPrecedence:   true,
		StrictTokenMatch:       true,
	}
)

// Rule is a single Allow or Disallow pattern inside a group.
type Rule struct {
	// Allow is true for Allow rules and false for Disallow rules.
	Allow bool
	// Path is the raw pattern as written (after comment stripping and
	// trimming); it may contain '*' wildcards and a '$' end anchor.
	Path string
	// Line is the 1-based source line of the rule.
	Line int
}

// Group is a set of user agents and the rules that apply to them.
type Group struct {
	// Agents are the raw User-agent values of the group, in order.
	Agents []string
	// Rules are the group's Allow/Disallow patterns, in order.
	Rules []Rule
	// Line is the 1-based source line where the group started.
	Line int
}

// Extension is a recognized non-standard directive (Crawl-delay, Host,
// Noindex, …) that compliant parsers record but ignore.
type Extension struct {
	Key   string
	Value string
	// Agents holds the group agents in scope when the extension appeared,
	// or nil for extensions outside any group.
	Agents []string
	Line   int
}

// Robots is a parsed robots.txt file.
type Robots struct {
	// Groups are the user-agent groups in file order.
	Groups []Group
	// Sitemaps are the Sitemap directive values in file order.
	Sitemaps []string
	// Extensions are recognized non-standard directives.
	Extensions []Extension
	// Warnings are the problems found while parsing; see Lint.
	Warnings []Warning
	// Truncated is true when the input exceeded maxSize.
	Truncated bool

	profile Profile

	// The view table Agent answers from, built on its first call:
	// views[i] governs the tokens of group-name class names[i] (longest
	// first) and the last view is the wildcard fallback, so a file holds
	// at most one view per distinct group name plus one, however many
	// user agents query it. Robots values must not be copied after first
	// use.
	viewsOnce sync.Once
	names     []string
	views     []Access
}

// ParseString parses a robots.txt body held in memory.
func ParseString(s string) *Robots {
	rb, _ := parseProfile(strings.NewReader(s), ProfileGoogle)
	return rb
}

// ParseStringProfile parses s under the given semantics profile.
func ParseStringProfile(s string, p Profile) *Robots {
	rb, _ := parseProfile(strings.NewReader(s), p)
	return rb
}

// scanBufPool recycles scanner buffers across parses: the 64 KiB
// initial buffer dominated the uncached parse's allocation profile
// (~68 KB/parse), and corpus construction parses tens of thousands of
// distinct bodies. Scanner tokens are copied out via Text() before the
// buffer returns to the pool.
var scanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64*1024)
		return &b
	},
}

// parseProfile reads a robots.txt body under the given semantics profile.
// Parsing never fails on malformed content — RFC 9309 requires crawlers
// to be lenient — so errors are only possible from the reader.
func parseProfile(r io.Reader, p Profile) (*Robots, error) {
	rb := &Robots{profile: p}
	limited := &io.LimitedReader{R: r, N: maxSize + 1}
	scanner := bufio.NewScanner(limited)
	bufp := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(bufp)
	scanner.Buffer(*bufp, 1024*1024)
	scanner.Split(scanLines)

	var (
		lineNo       int
		cur          *Group // group currently being built, nil if none
		lastWasAgent bool   // previous meaningful line was a User-agent line
		groupClosed  bool   // rules may no longer attach (buggy profiles)

		// ruleArena accumulates every group's rules contiguously; each
		// flushed group receives a capped sub-slice. One growing backing
		// array replaces the per-group append chains that otherwise
		// dominate rule allocation.
		ruleArena []Rule
		ruleStart int
	)
	flush := func() {
		if cur != nil {
			if n := len(ruleArena) - ruleStart; n > 0 {
				cur.Rules = ruleArena[ruleStart:len(ruleArena):len(ruleArena)]
			}
			ruleStart = len(ruleArena)
			if rb.Groups == nil {
				rb.Groups = make([]Group, 0, 8)
			}
			rb.Groups = append(rb.Groups, *cur)
			cur = nil
		}
	}
	for scanner.Scan() {
		lineNo++
		raw := scanner.Text()
		if lineNo == 1 {
			raw = strings.TrimPrefix(raw, "\ufeff")
		}
		line := stripComment(raw)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			// Blank or comment-only line: transparent by default.
			if p.BlankLineBreaksGroups {
				flush()
				lastWasAgent = false
				groupClosed = true
			}
			continue
		}
		key, value, ok := splitDirective(trimmed)
		if !ok {
			rb.warn(lineNo, warnMissingColon, trimmed)
			continue
		}
		switch canon, typo := canonicalKey(key); canon {
		case keyUserAgent:
			if typo {
				rb.warn(lineNo, warnNonCanonicalKey, key)
			}
			if value == "" {
				rb.warn(lineNo, warnEmptyUserAgent, "")
				continue
			}
			if lastWasAgent && cur != nil {
				if p.LastAgentWins {
					cur.Agents = []string{value}
				} else {
					cur.Agents = append(cur.Agents, value)
				}
			} else {
				flush()
				cur = &Group{Agents: []string{value}, Line: lineNo}
			}
			lastWasAgent = true
			groupClosed = false
		case keyAllow, keyDisallow:
			if typo {
				rb.warn(lineNo, warnDirectiveTypo, key)
			}
			if cur == nil || groupClosed {
				rb.warn(lineNo, warnRuleOutsideGroup, trimmed)
				lastWasAgent = false
				continue
			}
			if value != "" && value[0] != '/' && value[0] != '*' && value[0] != '$' {
				rb.warn(lineNo, warnPathNotAbsolute, value)
			}
			if ruleArena == nil {
				ruleArena = make([]Rule, 0, 8)
			}
			ruleArena = append(ruleArena, Rule{
				Allow: canon == keyAllow,
				Path:  value,
				Line:  lineNo,
			})
			lastWasAgent = false
		case keySitemap:
			rb.Sitemaps = append(rb.Sitemaps, value)
			// Sitemap is a standalone directive; it does not affect groups.
		case keyCrawlDelay:
			rb.warn(lineNo, warnCrawlDelay, value)
			rb.recordExtension(key, value, cur, lineNo)
			if p.CrawlDelayBreaksGroups {
				lastWasAgent = false
			}
		case keyExtension:
			rb.recordExtension(key, value, cur, lineNo)
		default:
			rb.warn(lineNo, warnUnknownDirective, key)
		}
	}
	if err := scanner.Err(); err != nil {
		return rb, fmt.Errorf("robots: reading input: %w", err)
	}
	flush()
	if limited.N <= 0 {
		rb.Truncated = true
		rb.warn(lineNo, warnTruncated, fmt.Sprintf("input exceeds %d bytes", maxSize))
	}
	return rb, nil
}

func (rb *Robots) recordExtension(key, value string, cur *Group, line int) {
	var agents []string
	if cur != nil {
		agents = append([]string(nil), cur.Agents...)
	}
	rb.Extensions = append(rb.Extensions, Extension{
		Key: strings.ToLower(key), Value: value, Agents: agents, Line: line,
	})
}

// scanLines splits on \n, \r\n and bare \r, all of which occur in the wild.
func scanLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && len(data) == 0 {
		return 0, nil, nil
	}
	for i, b := range data {
		switch b {
		case '\n':
			return i + 1, data[:i], nil
		case '\r':
			if i+1 < len(data) {
				if data[i+1] == '\n' {
					return i + 2, data[:i], nil
				}
				return i + 1, data[:i], nil
			}
			if atEOF {
				return i + 1, data[:i], nil
			}
			return 0, nil, nil // need one more byte to disambiguate \r\n
		}
	}
	if atEOF {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		return line[:i]
	}
	return line
}

// splitDirective splits "Key: value" at the first colon.
func splitDirective(line string) (key, value string, ok bool) {
	i := strings.IndexByte(line, ':')
	if i < 0 {
		return "", "", false
	}
	return strings.TrimSpace(line[:i]), strings.TrimSpace(line[i+1:]), true
}

type directiveKind int

const (
	keyUnknown directiveKind = iota
	keyUserAgent
	keyAllow
	keyDisallow
	keySitemap
	keyCrawlDelay
	keyExtension
)

// canonicalKey classifies a directive key, tolerating the common
// misspellings production parsers accept. typo reports whether the key was
// a non-canonical spelling.
func canonicalKey(key string) (kind directiveKind, typo bool) {
	switch strings.ToLower(key) {
	case "user-agent":
		return keyUserAgent, false
	case "useragent", "user agent":
		return keyUserAgent, true
	case "allow":
		return keyAllow, false
	case "disallow":
		return keyDisallow, false
	case "dissallow", "disalow", "dissalow", "disallaw":
		return keyDisallow, true
	case "sitemap", "site-map":
		return keySitemap, false
	case "crawl-delay", "crawldelay":
		return keyCrawlDelay, false
	case "host", "clean-param", "noindex", "request-rate", "visit-time":
		return keyExtension, false
	default:
		return keyUnknown, false
	}
}

// AgentTokens returns the distinct product tokens named by any group,
// excluding the wildcard, in file order. Used by the longitudinal analysis
// to see which crawlers a site addresses explicitly.
func (rb *Robots) AgentTokens() []string {
	seen := make(map[string]bool)
	var out []string
	for _, g := range rb.Groups {
		for _, a := range g.Agents {
			if useragent.IsWildcard(a) {
				continue
			}
			tok := strings.ToLower(useragent.ExtractToken(a))
			if tok == "" || seen[tok] {
				continue
			}
			seen[tok] = true
			out = append(out, useragent.ExtractToken(a))
		}
	}
	return out
}

// CrawlDelay returns the crawl-delay in effect for the given user agent, if
// any was declared for it or for the wildcard group.
func (rb *Robots) CrawlDelay(ua string) (string, bool) {
	token := useragent.ExtractToken(ua)
	wildcard := ""
	found := false
	for _, ext := range rb.Extensions {
		if ext.Key != "crawl-delay" && ext.Key != "crawldelay" {
			continue
		}
		for _, a := range ext.Agents {
			if useragent.IsWildcard(a) {
				wildcard = ext.Value
				found = true
			} else if useragent.EqualToken(useragent.ExtractToken(a), token) {
				return ext.Value, true
			}
		}
	}
	return wildcard, found
}
