// Package useragent implements user-agent string handling shared by the
// robots.txt matcher, the crawler fleet, and the blocking substrates.
//
// Two notions of "user agent" coexist in the Robots Exclusion Protocol
// world and the paper is careful to distinguish them:
//
//   - the product token, a short identifier such as "GPTBot" that a
//     crawler advertises and that robots.txt groups name; and
//   - the full User-Agent header, such as
//     "Mozilla/5.0 AppleWebKit/537.36; compatible; GPTBot/1.1", which
//     active-blocking rules (Cloudflare, .htaccess) match by substring.
//
// RFC 9309 §2.2.1 restricts product tokens to letters, hyphens and
// underscores. Real AI crawler tokens violate this (AI2Bot, 360Spider), so
// the extractor also accepts digits and dots, as production matchers do.
//
// Blocklist matching (ContainsFold, MatchesAny) is the one implementation
// every blocker in the tree uses, the policyd decision service included.
// It folds ASCII case only and never allocates.
package useragent

import "strings"

// ExtractToken returns the leading product token of a user-agent value
// using the practical alphabet (letters, digits, '-', '_', '.'). This
// mirrors what production robots.txt matchers do: "GPTBot/1.0 (+https://…)"
// yields "GPTBot", "Mozilla/5.0" yields "Mozilla".
func ExtractToken(ua string) string {
	ua = strings.TrimSpace(ua)
	i := 0
	for i < len(ua) {
		c := ua[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			i++
		default:
			return ua[:i]
		}
	}
	return ua
}

// ProductToken extracts the robots.txt product token from a full
// User-Agent header: full headers look like
// "Mozilla/5.0 …; compatible; GPTBot/1.1", so it takes the token of the
// last "; "-separated segment.
func ProductToken(ua string) string {
	if i := strings.LastIndex(ua, "; "); i >= 0 {
		ua = ua[i+2:]
	}
	return ExtractToken(ua)
}

// EqualToken reports whether two product tokens are equal under the
// case-insensitive comparison RFC 9309 requires.
func EqualToken(a, b string) bool {
	return strings.EqualFold(a, b)
}

// ContainsFold reports whether s contains substr, folding ASCII case
// only: bytes >= 0x80 compare exactly, because User-Agent values are
// ASCII on the wire. Active-blocking rule lists ("CCBot/",
// "anthropic-ai") are matched this way against the full User-Agent
// header. It allocates nothing.
func ContainsFold(s, substr string) bool {
	for i := 0; i+len(substr) <= len(s); i++ {
		if equalFoldASCII(s[i:i+len(substr)], substr) {
			return true
		}
	}
	return false
}

// equalFoldASCII reports whether a and b, of equal length, are equal
// under ASCII case folding.
func equalFoldASCII(a, b string) bool {
	for j := 0; j < len(b); j++ {
		if lowerASCII(a[j]) != lowerASCII(b[j]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// MatchesAny reports whether the full user-agent string ua matches any of
// the substring patterns under ContainsFold's ASCII case folding. It
// returns the first pattern that matched, or "" when none did; empty
// patterns match nothing. It allocates nothing.
func MatchesAny(ua string, patterns []string) (string, bool) {
	for _, p := range patterns {
		if p == "" {
			continue
		}
		if ContainsFold(ua, p) {
			return p, true
		}
	}
	return "", false
}

// FullUA builds a realistic full User-Agent header for a crawler product
// token, e.g. FullUA("GPTBot", "1.1") returns
// "Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko); compatible; GPTBot/1.1".
// Rule lists with trailing slashes (like Cloudflare's "CCBot/") rely on
// the token being followed by a version.
func FullUA(token, version string) string {
	if version == "" {
		version = "1.0"
	}
	return "Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko); compatible; " +
		token + "/" + version
}

// BrowserChromeUA is the desktop Chrome user agent the active-blocking
// prober uses for its control crawl (§6.1 of the paper).
const BrowserChromeUA = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 " +
	"(KHTML, like Gecko) Chrome/124.0.0.0 Safari/537.36"

// IsWildcard reports whether a robots.txt user-agent value is the
// catch-all "*" group name.
func IsWildcard(pattern string) bool { return strings.TrimSpace(pattern) == "*" }
