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
	"net/http"
	"net/url"
	"strings"

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
}

// Crawler is a runnable crawler instance.
type Crawler struct {
	profile Profile
	client  *http.Client
	// baseHdr carries the preset User-Agent and is shared across all of
	// this crawler's requests; transports and the handlers netsim.Get
	// calls in-process only read request headers, so one map serves
	// every fetch.
	baseHdr http.Header
	visits  int
	// get is netsim.Get, which fetches a (host, target) pair; the
	// differential test puts a stdlib reference in its place.
	get func(ctx context.Context, client *http.Client, host, target string, hdr http.Header) (int, string, error)
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
		profile: p,
		client:  nw.HTTPClient(p.SourceIP),
		baseHdr: http.Header{"User-Agent": []string{p.UserAgent}},
		get:     netsim.Get,
	}, nil
}

// robotsPolicy fetches robots.txt from host, the host of base, as the
// profile's behaviour says, recording the request on v, and returns the
// policy the crawler honours: nil when it fetched none, got none or
// ignores it.
func (c *Crawler) robotsPolicy(ctx context.Context, base *url.URL, host string, v *Visit) *robots.Robots {
	switch c.profile.Behavior {
	case Compliant:
		return c.fetchPolicy(ctx, base, host, "/robots.txt", v)
	case IntermittentFetch:
		if (c.visits-1)%3 == 0 {
			return c.fetchPolicy(ctx, base, host, "/robots.txt", v)
		}
	case FetchIgnore:
		c.fetchPolicy(ctx, base, host, "/robots.txt", v)
	case BuggyFetch:
		c.fetchPolicy(ctx, base, host, "/robots.txt%00", v) // malformed: never resolves to the policy
	}
	return nil
}

// fetchPolicy retrieves the robots.txt policy from host, the host of
// base, recording the request on v. A nil return means no usable policy
// was obtained.
func (c *Crawler) fetchPolicy(ctx context.Context, base *url.URL, host, robotsPath string, v *Visit) *robots.Robots {
	v.RobotsRequested = true
	v.RobotsPath = robotsPath
	robotsURL := *base
	robotsURL.Path = robotsPath
	robotsURL.RawQuery = ""
	status, body, err := c.get(ctx, c.client, host, robotsURL.RequestURI(), c.baseHdr)
	if err != nil {
		return nil
	}
	v.RobotsStatus = status
	if status != http.StatusOK || robotsPath != "/robots.txt" {
		return nil
	}
	// The fleet sees the same few policies thousands of times; the shared
	// content-keyed cache parses each distinct body once.
	return robots.ParseCached(body)
}

// SetVisits sets the visit counter to n without fetching, as if exactly
// n earlier visits had already happened. Behaviours keyed to the visit
// sequence (IntermittentFetch's every-third-visit robots fetch) resume
// mid-cycle, so a simulation can keep one crawler and place it at an
// arbitrary point of its per-site schedule before each crawl. The
// counter is the only state a crawler carries from one visit to the
// next.
func (c *Crawler) SetVisits(n int) {
	if n < 0 {
		n = 0
	}
	c.visits = n
}

// Crawl visits the site rooted at baseURL: depending on the profile it
// fetches robots.txt first, then breadth-first follows same-site links
// from "/" subject to the robots policy. A base URL that netsim.Get
// cannot fetch is an error.
func (c *Crawler) Crawl(ctx context.Context, baseURL string) (*Visit, error) {
	c.visits++
	base, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("crawler: bad base URL: %w", err)
	}
	host, _, err := netsim.SplitURL(base)
	if err != nil {
		return nil, fmt.Errorf("crawler: bad base URL: %w", err)
	}
	v := &Visit{BaseURL: baseURL}
	policy := c.robotsPolicy(ctx, base, host, v)

	// The queue and the link buffer start in arrays of this frame, and
	// seen is small, so a crawl of a small site keeps all three off the
	// heap. The queue is read from head on, never re-sliced.
	var queueBuf, linkBuf [16]string
	queue, links := append(queueBuf[:0], "/"), linkBuf[:0]
	seen := make(map[string]bool, 8)
	seen["/"] = true
	sitePrefix := base.Scheme + "://" + base.Host
	for head := 0; head < len(queue) && len(v.Fetched) < c.profile.MaxPages; head++ {
		path := queue[head]
		if policy != nil && !policy.Allowed(c.profile.Token, path) {
			v.Skipped = append(v.Skipped, path)
			continue
		}
		target := path // the target a stock client sends for sitePrefix+path
		if !netsim.PlainPath(path) {
			u, err := url.Parse(sitePrefix + path)
			if err != nil {
				continue
			}
			target = u.RequestURI()
		}
		status, body, err := c.get(ctx, c.client, host, target, c.baseHdr)
		if err != nil {
			continue
		}
		if status != http.StatusOK {
			v.Failed = append(v.Failed, path)
			continue
		}
		v.Fetched = append(v.Fetched, path)
		links = appendLinks(links[:0], body)
		for _, link := range links {
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
// A URL that netsim.Get cannot fetch is an error.
func (c *Crawler) FetchOne(ctx context.Context, rawURL string) (fetched bool, v *Visit, err error) {
	c.visits++
	u, err := url.Parse(rawURL)
	if err != nil {
		return false, nil, fmt.Errorf("crawler: bad URL: %w", err)
	}
	host, target, err := netsim.SplitURL(u)
	if err != nil {
		return false, nil, &url.Error{Op: "Get", URL: rawURL, Err: err}
	}
	v = &Visit{BaseURL: rawURL}
	policy := c.robotsPolicy(ctx, u, host, v)
	path := u.Path
	if path == "" {
		path = "/"
	}
	if policy != nil && !policy.Allowed(c.profile.Token, path) {
		v.Skipped = append(v.Skipped, path)
		return false, v, nil
	}
	status, _, err := c.get(ctx, c.client, host, target, c.baseHdr)
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

// appendLinks appends to dst the href and src attribute values of HTML
// body and returns the extended slice: every href link in page order,
// then every src link. It is a small tokenizer, not a full HTML parser:
// good enough for the well-formed pages the instrumented sites serve.
// Each pass jumps between the page's `="` pairs and checks the attribute
// name before one under ASCII case folding, so no byte of the page is
// folded except those names.
func appendLinks(dst []string, body string) []string {
	for _, name := range []string{"href", "src"} {
		// idx is where the next name=" may start; the search resumes at
		// the quote that closed the previous value.
		for idx := 0; idx+len(name) <= len(body); {
			i := strings.Index(body[idx+len(name):], `="`)
			if i < 0 {
				break
			}
			eq := idx + len(name) + i
			if !hasPrefixFold(body[eq-len(name):], name) {
				idx = eq - len(name) + 1
				continue
			}
			start := eq + 2
			end := strings.IndexByte(body[start:], '"')
			if end < 0 {
				break
			}
			link := body[start : start+end]
			if link != "" && !strings.HasPrefix(link, "#") && !hasPrefixFold(link, "javascript:") {
				dst = append(dst, link)
			}
			idx = start + end
		}
	}
	return dst
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
