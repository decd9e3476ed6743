package robots

import (
	"slices"
	"strings"

	"repro/internal/useragent"
)

// Access is the view of a parsed robots.txt from one crawler's
// perspective: the merged rule set of every group that governs the
// crawler's product token.
type Access struct {
	// Explicit is true when a non-wildcard group matched the token.
	Explicit bool
	// MatchedAgents are the group names that matched (lowercased).
	MatchedAgents []string

	rules []Rule
	// normPats holds normalizePath(rules[i].Path), precomputed once so
	// Allowed does no per-call normalization work.
	normPats             []string
	firstMatchPrecedence bool
}

// Agent returns the access view for a crawler identified by ua, which may
// be a full User-Agent header or a bare product token. Group selection
// follows the parse profile: by default the most specific matching group
// name governs ("googlebot-news" over "googlebot" over "*"), with all
// groups of that name merged per RFC 9309.
//
// The first call builds the file's view table (see buildViews); every
// call then picks the table entry that governs ua's token and returns a
// pointer into it. Agent keeps nothing per query, so a *Robots shared
// through a Cache serves any number of goroutines and distinct user
// agents without growing, and it allocates nothing after the first
// call. The view is shared: callers must not modify it.
func (rb *Robots) Agent(ua string) *Access {
	rb.viewsOnce.Do(rb.buildViews)
	token := useragent.ExtractToken(ua)
	for i, name := range rb.names {
		if rb.agentNameMatches(name, token) {
			return &rb.views[i]
		}
	}
	return &rb.views[len(rb.names)]
}

// buildViews fills the view table: one view per group-name class and a
// last one for the wildcard fallback. A class is the set of group names
// that match as one — equal under ASCII case folding (product tokens
// are ASCII), or exactly equal under CaseSensitiveAgents — and every
// name in it governs the same tokens. A name that governs a token is
// that token or a prefix of it, so of the classes governing one token
// no two have the same length: sorted longest first, the first match is
// the most specific. Each view merges, in file order, the rules of every
// group naming its class.
func (rb *Robots) buildViews() {
	var names []string
	for gi := range rb.Groups {
		for _, a := range rb.Groups[gi].Agents {
			if name := useragent.ExtractToken(a); name != "" && rb.classOf(names, name) < 0 {
				names = append(names, name)
			}
		}
	}
	slices.SortStableFunc(names, func(a, b string) int { return len(b) - len(a) })

	views := make([]Access, len(names)+1)
	for i, name := range names {
		views[i].Explicit = true
		views[i].MatchedAgents = []string{strings.ToLower(name)}
	}
	wild := &views[len(names)]
	// seen[c] is the last group whose rules class c took, so a group
	// naming one class twice merges once.
	seen := make([]int, len(names))
	for gi := range rb.Groups {
		g := &rb.Groups[gi]
		wildcard := false
		for _, a := range g.Agents {
			if useragent.IsWildcard(a) {
				wildcard = true
				continue
			}
			if c := rb.classOf(names, useragent.ExtractToken(a)); c >= 0 && seen[c] != gi+1 {
				seen[c] = gi + 1
				views[c].rules = append(views[c].rules, g.Rules...)
			}
		}
		if wildcard {
			wild.rules = append(wild.rules, g.Rules...)
		}
	}
	if len(wild.rules) > 0 {
		wild.MatchedAgents = []string{"*"}
	}
	for i := range views {
		views[i].firstMatchPrecedence = rb.profile.FirstMatchPrecedence
		views[i].normalizeRules()
	}
	rb.names, rb.views = names, views
}

// classOf returns the index of name's class in names, or -1.
func (rb *Robots) classOf(names []string, name string) int {
	for i, n := range names {
		if len(n) == len(name) && rb.agentNameMatches(n, name) {
			return i
		}
	}
	return -1
}

// normalizeRules precomputes the normalized pattern for every rule.
func (a *Access) normalizeRules() {
	if len(a.rules) == 0 {
		return
	}
	a.normPats = make([]string, len(a.rules))
	for i, r := range a.rules {
		if r.Path != "" {
			a.normPats[i] = normalizePath(r.Path)
		}
	}
}

// agentNameMatches reports whether a robots.txt group name governs the
// crawler token under the parse profile's semantics.
func (rb *Robots) agentNameMatches(name, token string) bool {
	if rb.profile.CaseSensitiveAgents {
		if rb.profile.StrictTokenMatch {
			return name == token
		}
		return name == token || hierarchicalPrefix(name, token)
	}
	if useragent.EqualToken(name, token) {
		return true
	}
	if rb.profile.StrictTokenMatch {
		return false
	}
	return hierarchicalPrefixFold(name, token)
}

// hierarchicalPrefixFold reports whether name governs token by the
// product-token hierarchy: "googlebot" governs "googlebot-news" (the match
// must end at a '-' boundary), case-insensitively.
func hierarchicalPrefixFold(name, token string) bool {
	if len(name) >= len(token) {
		return false
	}
	if !strings.EqualFold(token[:len(name)], name) {
		return false
	}
	return token[len(name)] == '-'
}

func hierarchicalPrefix(name, token string) bool {
	if len(name) >= len(token) {
		return false
	}
	return token[:len(name)] == name && token[len(name)] == '-'
}

// HasRules reports whether any rule governs this agent.
func (a Access) HasRules() bool { return len(a.rules) > 0 }

// Allowed reports whether the agent may fetch the given path. The path
// should begin with '/' and may include a query string; the empty path is
// treated as "/". Per RFC 9309, "/robots.txt" is always allowed.
func (a *Access) Allowed(path string) bool {
	if path == "" {
		path = "/"
	}
	if path == "/robots.txt" {
		return true
	}
	path = normalizePath(path)
	if a.firstMatchPrecedence {
		for i, r := range a.rules {
			if r.Path == "" {
				continue
			}
			if MatchPattern(a.normPats[i], path) {
				return r.Allow
			}
		}
		return true
	}
	bestLen := -1
	allowed := true
	for i, r := range a.rules {
		if r.Path == "" {
			continue // empty pattern matches nothing
		}
		pat := a.normPats[i]
		if !MatchPattern(pat, path) {
			continue
		}
		pl := patternPriority(pat)
		switch {
		case pl > bestLen:
			bestLen = pl
			allowed = r.Allow
		case pl == bestLen && r.Allow && !allowed:
			// Tie: Allow wins (RFC 9309 §2.2.2).
			allowed = true
		}
	}
	return allowed
}

// Allowed is a convenience wrapper: may the crawler ua fetch path?
func (rb *Robots) Allowed(ua, path string) bool {
	return rb.Agent(ua).Allowed(path)
}

// patternPriority is the specificity of a pattern for longest-match
// precedence: its length in bytes (Google uses the same metric).
func patternPriority(pat string) int { return len(pat) }

// MatchPattern reports whether a robots.txt pattern matches the path.
// Patterns are prefix patterns: "/foo" matches "/foobar" and "/foo/baz".
// '*' matches any run of characters (including the empty run); '$' at the
// very end anchors the pattern to the end of the path. It is the one
// '*'/'$' matcher in the tree: ai.txt path patterns use it too. It
// compares bytes exactly and allocates nothing; callers normalize.
func MatchPattern(pattern, path string) bool {
	if strings.HasSuffix(pattern, "$") {
		return matchFull(pattern[:len(pattern)-1], path, true)
	}
	// An unanchored pattern must match some prefix of the path — the same
	// as fully matching with an implicit trailing wildcard, handled inside
	// matchFull without building a new pattern string.
	return matchFull(pattern, path, false)
}

// matchFull reports whether pattern (with '*' wildcards) matches path,
// using greedy two-pointer matching with backtracking. When anchored is
// false the pattern only needs to match a prefix of the path (implicit
// trailing '*'). It runs in O(len(pattern) * len(path)) worst case and
// allocates nothing.
func matchFull(pattern, path string, anchored bool) bool {
	var (
		p, s         int  // cursors into pattern and path
		starP, starS int  // backtrack positions
		haveStar     bool // a '*' has been seen
	)
	for s < len(path) {
		if !anchored && p == len(pattern) {
			return true // implicit trailing '*' consumes the rest
		}
		switch {
		case p < len(pattern) && pattern[p] == '*':
			haveStar = true
			starP = p
			starS = s
			p++
		case p < len(pattern) && pattern[p] == path[s]:
			p++
			s++
		case haveStar:
			starS++
			s = starS
			p = starP + 1
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}

// normalizePath canonicalizes percent-encoding so that patterns and paths
// compare the way RFC 9309 §2.2.3 requires: valid %xx triplets are
// uppercased and bytes outside the ASCII printable range are
// percent-encoded. '*' and '$' are printable ASCII and pass through, so
// the same normalization serves patterns and paths alike. Paths that need
// no rewriting — the overwhelmingly common case — are returned as-is
// without allocating.
func normalizePath(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '%' || c == ' ' || c >= 0x80 {
			return normalizePathSlow(s)
		}
	}
	return s
}

func normalizePathSlow(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '%' && i+2 < len(s) && isHex(s[i+1]) && isHex(s[i+2]):
			b.WriteByte('%')
			b.WriteByte(upperHex(s[i+1]))
			b.WriteByte(upperHex(s[i+2]))
			i += 2
		case c >= 0x80 || c == ' ':
			const hexdigits = "0123456789ABCDEF"
			b.WriteByte('%')
			b.WriteByte(hexdigits[c>>4])
			b.WriteByte(hexdigits[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func upperHex(c byte) byte {
	if c >= 'a' && c <= 'f' {
		return c - 'a' + 'A'
	}
	return c
}
