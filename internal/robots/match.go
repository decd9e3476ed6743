package robots

import (
	"strings"

	"repro/internal/useragent"
)

// Access is the view of a parsed robots.txt from one crawler's
// perspective: the merged rule set of every group that governs the
// crawler's product token.
type Access struct {
	// Token is the product token extracted from the queried user agent.
	Token string
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
// Access views are memoized per user agent on the Robots value; the memo
// is concurrency-safe, so cached *Robots (see Cache) can serve many
// crawler goroutines at once.
func (rb *Robots) Agent(ua string) Access {
	if v, ok := rb.access.Load(ua); ok {
		return v.(Access)
	}
	acc := rb.buildAccess(ua)
	// Concurrent builders compute identical values; last store wins.
	rb.access.Store(ua, acc)
	return acc
}

// buildAccess resolves the governing groups for ua. Two passes over the
// groups: the first finds the winning specificity, the second collects
// the matching groups' rules in file order — no sorting or scratch maps.
func (rb *Robots) buildAccess(ua string) Access {
	token := useragent.ExtractToken(ua)
	acc := Access{Token: token, firstMatchPrecedence: rb.profile.FirstMatchPrecedence}

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
				lower := strings.ToLower(name)
				if !containsString(acc.MatchedAgents, lower) {
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
	// Fall back to the wildcard groups, merged.
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

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
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
			if MatchPattern(a.normPat(i), path) {
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
		pat := a.normPat(i)
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

// normPat returns the precomputed normalized pattern for rule i, falling
// back to on-the-fly normalization for Access values built elsewhere.
func (a *Access) normPat(i int) string {
	if i < len(a.normPats) {
		return a.normPats[i]
	}
	return normalizePath(a.rules[i].Path)
}

// Allowed is a convenience wrapper: may the crawler ua fetch path?
func (rb *Robots) Allowed(ua, path string) bool {
	acc := rb.Agent(ua)
	return acc.Allowed(path)
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
