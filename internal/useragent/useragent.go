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

// EqualToken reports whether two product tokens are equal under the
// case-insensitive comparison RFC 9309 requires.
func EqualToken(a, b string) bool {
	return strings.EqualFold(a, b)
}

// ContainsFold reports whether s contains substr case-insensitively.
// Active-blocking rule lists ("CCBot/", "anthropic-ai") are matched this
// way against the full User-Agent header.
func ContainsFold(s, substr string) bool {
	if substr == "" {
		return true
	}
	if len(substr) > len(s) {
		return false
	}
	ls, lsub := strings.ToLower(s), strings.ToLower(substr)
	return strings.Contains(ls, lsub)
}

// MatchesAny reports whether the full user-agent string ua matches any of
// the substring patterns, case-insensitively. It returns the first pattern
// that matched, or "" when none did.
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
