// Package crawler implements the AI crawler fleet for the paper's §5
// experiments: an HTTP crawler engine that optionally fetches and honors
// robots.txt, plus per-company compliance profiles reproducing the
// behaviours the paper observed in the wild (compliant crawlers,
// Bytespider's fetch-but-ignore, assistant crawlers that never fetch
// robots.txt, and one with a buggy robots fetch).
package crawler

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/netsim"
	"repro/internal/robots"
	"repro/internal/useragent"
)

// Behavior is how a crawler treats robots.txt.
type Behavior int

const (
	// Compliant crawlers fetch robots.txt and honor it.
	Compliant Behavior = iota
	// FetchIgnore crawlers fetch robots.txt but ignore its directives
	// (Bytespider, §5.2.1).
	FetchIgnore
	// NoFetch crawlers never request robots.txt (most third-party AI
	// assistant crawlers, §5.2.2).
	NoFetch
	// BuggyFetch crawlers request a malformed robots.txt URL, never see
	// the real policy, and crawl as if unrestricted (§5.2.2: "one has a
	// bug in its implementation that caused it to incorrectly fetch the
	// robots.txt file").
	BuggyFetch
	// IntermittentFetch crawlers only sometimes fetch robots.txt ("one
	// did not fetch the robots.txt file most of the time", §5.2.2). The
	// engine fetches when the visit sequence number modulo 3 is 0.
	IntermittentFetch
)

// String names the behaviour.
func (b Behavior) String() string {
	switch b {
	case Compliant:
		return "compliant"
	case FetchIgnore:
		return "fetch-ignore"
	case NoFetch:
		return "no-fetch"
	case BuggyFetch:
		return "buggy-fetch"
	case IntermittentFetch:
		return "intermittent-fetch"
	default:
		return "unknown"
	}
}

// Profile configures one crawler.
type Profile struct {
	// Token is the product token presented in robots.txt terms.
	Token string
	// UserAgent is the full User-Agent header; defaults to a realistic
	// header derived from Token.
	UserAgent string
	// SourceIP is the address the crawler dials from.
	SourceIP string
	// Behavior is the robots.txt compliance mode.
	Behavior Behavior
	// MaxPages bounds a single crawl; 0 means 32.
	MaxPages int
	// CacheRobots makes the crawler reuse a previously fetched robots.txt
	// for the same host instead of refetching — the §8.2 staleness
	// problem: compliant crawlers "may cache robots.txt and may continue
	// to fetch content even after it has changed".
	CacheRobots bool
}

// Crawler is a runnable crawler instance.
type Crawler struct {
	profile Profile
	client  *http.Client
	// baseHdr carries the preset User-Agent and is shared across all of
	// this crawler's requests; transports only read request headers, so
	// one map serves every fetch.
	baseHdr     http.Header
	visits      int
	robotsCache map[string]*robots.Robots
}

// Visit is the record of one crawl of one site.
type Visit struct {
	// BaseURL is the crawl root.
	BaseURL string
	// RobotsRequested is true when any robots.txt request was attempted.
	RobotsRequested bool
	// RobotsPath is the path the crawler used for robots.txt (buggy
	// crawlers use a malformed one).
	RobotsPath string
	// RobotsStatus is the robots.txt response status (0 if not fetched).
	RobotsStatus int
	// RobotsFromCache is true when a cached policy was reused instead of
	// refetching (§8.2 staleness).
	RobotsFromCache bool
	// Fetched lists content paths successfully downloaded (HTTP 200).
	Fetched []string
	// Failed lists content paths requested but not served (non-200), such
	// as pages behind an active blocker.
	Failed []string
	// Skipped lists paths the crawler declined to fetch because robots.txt
	// disallowed them.
	Skipped []string
}

// New creates a crawler on the given network.
func New(nw *netsim.Network, p Profile) (*Crawler, error) {
	if p.Token == "" {
		return nil, fmt.Errorf("crawler: profile needs a product token")
	}
	if p.SourceIP == "" {
		return nil, fmt.Errorf("crawler: profile needs a source IP")
	}
	if p.UserAgent == "" {
		p.UserAgent = useragent.FullUA(p.Token, "1.0")
	}
	if p.MaxPages == 0 {
		p.MaxPages = 32
	}
	return &Crawler{
		profile:     p,
		client:      nw.HTTPClient(p.SourceIP),
		baseHdr:     http.Header{"User-Agent": []string{p.UserAgent}},
		robotsCache: make(map[string]*robots.Robots),
	}, nil
}

// fetchPolicy retrieves (or, with CacheRobots, reuses) the robots.txt
// policy for host, recording the request on v. A nil return means no
// usable policy was obtained.
func (c *Crawler) fetchPolicy(ctx context.Context, base *url.URL, robotsPath string, v *Visit) *robots.Robots {
	if c.profile.CacheRobots {
		if cached, ok := c.robotsCache[base.Host]; ok {
			v.RobotsFromCache = true
			return cached
		}
	}
	v.RobotsRequested = true
	v.RobotsPath = robotsPath
	robotsURL := *base
	robotsURL.Path = robotsPath
	robotsURL.RawQuery = ""
	status, body, err := c.get(ctx, robotsURL.String())
	if err != nil {
		return nil
	}
	v.RobotsStatus = status
	if status != http.StatusOK || robotsPath != "/robots.txt" {
		return nil
	}
	// The fleet sees the same few policies thousands of times; the shared
	// content-keyed cache parses each distinct body once.
	policy := robots.ParseCached(body)
	if c.profile.CacheRobots {
		c.robotsCache[base.Host] = policy
	}
	return policy
}

// InvalidateCache drops the cached robots.txt for every host, modeling a
// crawler whose cache TTL expired.
func (c *Crawler) InvalidateCache() {
	c.robotsCache = make(map[string]*robots.Robots)
}

// Profile returns the crawler's configuration.
func (c *Crawler) Profile() Profile { return c.profile }

// SetVisits sets the visit counter to n without fetching, as if exactly
// n earlier visits had already happened. Behaviours keyed to the visit
// sequence (IntermittentFetch's every-third-visit robots fetch) resume
// mid-cycle, so a simulation can keep one crawler and place it at an
// arbitrary point of its per-site schedule before each crawl. With
// CacheRobots off the counter is the only state a crawler carries from
// one visit to the next.
func (c *Crawler) SetVisits(n int) {
	if n < 0 {
		n = 0
	}
	c.visits = n
}

// CloseIdleConnections drops the crawler's pooled keep-alive
// connections. A caller that removes a site the crawler talked to calls
// it so the dead client ends are released instead of filling the pool.
func (c *Crawler) CloseIdleConnections() { c.client.CloseIdleConnections() }

// Crawl visits the site rooted at baseURL: depending on the profile it
// fetches robots.txt first, then breadth-first follows same-site links
// from "/" subject to the robots policy.
func (c *Crawler) Crawl(ctx context.Context, baseURL string) (*Visit, error) {
	c.visits++
	base, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("crawler: bad base URL: %w", err)
	}
	v := &Visit{BaseURL: baseURL}

	var policy *robots.Robots
	fetchRobots := false
	robotsPath := "/robots.txt"
	switch c.profile.Behavior {
	case Compliant, FetchIgnore:
		fetchRobots = true
	case BuggyFetch:
		fetchRobots = true
		robotsPath = "/robots.txt%00" // malformed: never resolves to the policy
	case IntermittentFetch:
		fetchRobots = (c.visits-1)%3 == 0
	}
	if fetchRobots {
		policy = c.fetchPolicy(ctx, base, robotsPath, v)
	}
	honor := c.profile.Behavior == Compliant || c.profile.Behavior == IntermittentFetch

	allowed := func(path string) bool {
		if policy == nil || !honor {
			return true
		}
		return policy.Allowed(c.profile.Token, path)
	}

	sitePrefix := base.Scheme + "://" + base.Host
	queue := []string{"/"}
	seen := map[string]bool{"/": true}
	for len(queue) > 0 && len(v.Fetched) < c.profile.MaxPages {
		path := queue[0]
		queue = queue[1:]
		if !allowed(path) {
			v.Skipped = append(v.Skipped, path)
			continue
		}
		status, body, err := c.get(ctx, sitePrefix+path)
		if err != nil {
			continue
		}
		if status != http.StatusOK {
			v.Failed = append(v.Failed, path)
			continue
		}
		v.Fetched = append(v.Fetched, path)
		for _, link := range ExtractLinks(body) {
			p, ok := sameSitePath(link, base, sitePrefix)
			if !ok {
				continue
			}
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	return v, nil
}

// sameSitePath resolves a link against the crawl base and returns its
// path when it stays on the same host. Root-relative and same-site
// absolute links — the overwhelming majority — resolve without parsing a
// URL; anything that needs real URL semantics (percent-escapes, dot
// segments, relative references, foreign hosts) falls back to net/url so
// the resolved path matches what ResolveReference would produce.
func sameSitePath(link string, base *url.URL, sitePrefix string) (string, bool) {
	// "/." catches every dot-segment form ("/../x", "/./x", trailing "/..")
	// in the absolute paths the fast path handles; false positives like
	// "/.well-known/" just take the slower, equivalent fallback.
	if !strings.Contains(link, "%") && !strings.Contains(link, "/.") {
		switch {
		case strings.HasPrefix(link, "/"):
			if !strings.HasPrefix(link, "//") { // "//host/path" is scheme-relative
				return trimPath(link), true
			}
		case strings.HasPrefix(link, sitePrefix):
			rest := link[len(sitePrefix):]
			if rest == "" {
				return "/", true
			}
			if rest[0] == '/' {
				return trimPath(rest), true
			}
		}
	}
	ref, err := url.Parse(link)
	if err != nil {
		return "", false
	}
	abs := base.ResolveReference(ref)
	if abs.Host != base.Host {
		return "", false
	}
	if abs.Path == "" {
		return "/", true
	}
	return abs.Path, true
}

// trimPath drops a query string or fragment from a root-relative link,
// mirroring what resolving through url.URL.Path would keep.
func trimPath(p string) string {
	if i := strings.IndexAny(p, "?#"); i >= 0 {
		p = p[:i]
	}
	if p == "" {
		return "/"
	}
	return p
}

// FetchOne retrieves a single URL the way assistant crawlers do for a
// user-triggered request, honoring the profile's robots behaviour.
// It reports whether the content was fetched (vs declined by policy).
func (c *Crawler) FetchOne(ctx context.Context, rawURL string) (fetched bool, v *Visit, err error) {
	c.visits++
	u, err := url.Parse(rawURL)
	if err != nil {
		return false, nil, fmt.Errorf("crawler: bad URL: %w", err)
	}
	v = &Visit{BaseURL: rawURL}

	var policy *robots.Robots
	fetchRobots := false
	robotsPath := "/robots.txt"
	switch c.profile.Behavior {
	case Compliant, FetchIgnore:
		fetchRobots = true
	case BuggyFetch:
		fetchRobots = true
		robotsPath = "/robots.txt%00"
	case IntermittentFetch:
		fetchRobots = (c.visits-1)%3 == 0
	}
	if fetchRobots {
		policy = c.fetchPolicy(ctx, u, robotsPath, v)
	}
	honor := c.profile.Behavior == Compliant || c.profile.Behavior == IntermittentFetch
	path := u.Path
	if path == "" {
		path = "/"
	}
	if policy != nil && honor && !policy.Allowed(c.profile.Token, path) {
		v.Skipped = append(v.Skipped, path)
		return false, v, nil
	}
	status, _, err := c.get(ctx, rawURL)
	if err != nil {
		return false, v, err
	}
	if status != http.StatusOK {
		v.Failed = append(v.Failed, path)
		return false, v, nil
	}
	v.Fetched = append(v.Fetched, path)
	return true, v, nil
}

// maxBodyBytes bounds how much of a response a crawler reads.
const maxBodyBytes = 1 << 20

// copyBufPool recycles the scratch buffers get uses to drain response
// bodies; draining fully (instead of closing early) is what lets the
// transport return the connection to the keep-alive pool.
var copyBufPool = sync.Pool{
	New: func() any { return make([]byte, 16*1024) },
}

func (c *Crawler) get(ctx context.Context, rawURL string) (int, string, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return 0, "", err
	}
	// Built by hand instead of NewRequestWithContext so every fetch
	// shares baseHdr rather than allocating and populating a fresh map.
	req := (&http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     c.baseHdr,
		Host:       u.Host,
	}).WithContext(ctx)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if resp.ContentLength > 0 && resp.ContentLength <= maxBodyBytes {
		sb.Grow(int(resp.ContentLength))
	}
	buf := copyBufPool.Get().([]byte)
	_, err = io.CopyBuffer(&sb, io.LimitReader(resp.Body, maxBodyBytes), buf)
	copyBufPool.Put(buf) //nolint:staticcheck // fixed-size []byte scratch buffer
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, sb.String(), nil
}

// ExtractLinks scans HTML for href and src attribute values. It is a
// small tokenizer, not a full HTML parser: good enough for the
// well-formed pages the instrumented sites serve. Attribute names are
// matched case-insensitively in place, without lowercasing a copy of the
// page.
func ExtractLinks(body string) []string {
	var out []string
	for _, attr := range []string{`href="`, `src="`} {
		idx := 0
		for {
			i := indexFold(body[idx:], attr)
			if i < 0 {
				break
			}
			start := idx + i + len(attr)
			end := strings.IndexByte(body[start:], '"')
			if end < 0 {
				break
			}
			link := body[start : start+end]
			if link != "" && !strings.HasPrefix(link, "#") && !hasPrefixFold(link, "javascript:") {
				out = append(out, link)
			}
			idx = start + end
		}
	}
	return out
}

// indexFold returns the index of the first ASCII case-insensitive
// occurrence of substr in s, or -1. substr must be lowercase ASCII.
func indexFold(s, substr string) int {
	if len(substr) == 0 {
		return 0
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		if lowerByte(s[i]) != substr[0] {
			continue
		}
		if hasPrefixFold(s[i:], substr) {
			return i
		}
	}
	return -1
}

// hasPrefixFold reports whether s starts with prefix under ASCII case
// folding. prefix must be lowercase ASCII.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if lowerByte(s[i]) != prefix[i] {
			return false
		}
	}
	return true
}

func lowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}
