// Package webserver hosts instrumented websites over an in-memory network
// for the paper's §5 and §6 experiments: sites with configurable
// robots.txt, linked content pages, request logging (the "web server
// logs" the passive measurement analyses), and pluggable active-blocking
// hooks.
package webserver

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	"repro/internal/netsim"
)

// Page is one servable resource on a site.
type Page struct {
	// ContentType defaults to text/html when empty.
	ContentType string
	// Body is the response payload.
	Body string
}

// BlockDecision is an active-blocking outcome for a request.
type BlockDecision struct {
	// Status is the HTTP status to return (e.g. 403).
	Status int
	// Body is the block or challenge page markup.
	Body string
	// Challenge marks CAPTCHA-style challenge pages, which the §6.3
	// inference flow distinguishes from hard blocks.
	Challenge bool
}

// Blocker inspects a request before content is served. A nil return means
// the request passes. Implementations live in internal/blocking.
type Blocker interface {
	Check(r *http.Request) *BlockDecision
}

// BlockerFunc adapts a function to the Blocker interface.
type BlockerFunc func(r *http.Request) *BlockDecision

// Check implements Blocker.
func (f BlockerFunc) Check(r *http.Request) *BlockDecision { return f(r) }

// Config describes a site to host.
type Config struct {
	// Domain registers the site in the network's name service.
	Domain string
	// IP is the site's advertised address, at which its farm is bound
	// too when it differs from the farm's own address.
	IP string
	// RobotsTxt is served at /robots.txt; nil means the site has no
	// robots.txt (404).
	RobotsTxt *string
	// Pages maps paths (starting with '/') to content.
	Pages map[string]Page
	// Blocker, when set, screens every request (including robots.txt,
	// like real reverse proxies do).
	Blocker Blocker
	// LogCap is the capacity the site's request log starts with: a site
	// that knows how many requests it will log sets it, so its log never
	// regrows. 0 starts the log empty, to grow as requests arrive.
	LogCap int
}

// Validate reports whether the config can be hosted: a non-empty domain,
// a parseable, non-empty IP and a LogCap of at least 0. Farm.StartSite applies it before
// touching the network, so a bad config fails with a clear error instead
// of a half-registered site.
func (cfg Config) Validate() error {
	if cfg.Domain == "" {
		return fmt.Errorf("webserver: site host (Domain) must not be empty")
	}
	if cfg.IP == "" {
		return fmt.Errorf("webserver: site IP must not be empty")
	}
	if net.ParseIP(cfg.IP) == nil {
		return fmt.Errorf("webserver: invalid site IP %q", cfg.IP)
	}
	if cfg.LogCap < 0 {
		return fmt.Errorf("webserver: negative LogCap %d", cfg.LogCap)
	}
	return nil
}

// Record is one logged request, the unit of §5's passive analysis: who
// fetched what, and what was served. It carries no timestamp, because
// no analysis reads one; a reader of simulated time would stamp records
// from the scenario's month, never from the wall clock. A record is
// never changed once logged, so Log and LogSince hand out views of the
// log itself.
type Record struct {
	RemoteIP  string
	UserAgent string
	Path      string
	Status    int
	Bytes     int
}

// Site is a running instrumented website hosted by a Farm (virtual-host
// dispatch in the farm's one handler). Its measurement surface is the
// request log and the runtime policy swaps.
type Site struct {
	cfg  Config
	farm *Farm

	mu  sync.Mutex // guards cfg mutations (robots, blocker, pages) and log
	log []Record   // append-only, in arrival order
}

// Close removes the site from its farm; its log stays readable.
func (s *Site) Close() error { return s.farm.Remove(s) }

// Domain returns the site's registered name.
func (s *Site) Domain() string { return s.cfg.Domain }

// URL returns the site's base URL.
func (s *Site) URL() string { return "http://" + s.cfg.Domain }

// SetRobots replaces the robots.txt content at runtime (nil removes it).
func (s *Site) SetRobots(txt *string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.RobotsTxt = txt
}

// SetBlocker replaces the active-blocking hook at runtime.
func (s *Site) SetBlocker(b Blocker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Blocker = b
}

// serve answers one request and appends its record to the site log.
func (s *Site) serve(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	robotsTxt := s.cfg.RobotsTxt
	blocker := s.cfg.Blocker
	page, havePage := s.cfg.Pages[r.URL.Path]
	s.mu.Unlock()

	status := http.StatusOK
	var body, contentType string

	var decision *BlockDecision
	if blocker != nil {
		decision = blocker.Check(r)
	}
	switch {
	case decision != nil:
		status, body, contentType = decision.Status, decision.Body, "text/html"
	case r.URL.Path == "/robots.txt":
		if robotsTxt == nil {
			status, body = http.StatusNotFound, "no robots.txt\n"
		} else {
			body, contentType = *robotsTxt, "text/plain"
		}
	case havePage:
		body = page.Body
		contentType = page.ContentType
	default:
		status, body = http.StatusNotFound, "not found\n"
	}
	if contentType == "" {
		contentType = "text/html; charset=utf-8"
	}
	netsim.SetHeader(w, "Content-Type", contentType)
	w.WriteHeader(status)
	n, _ := io.WriteString(w, body)

	host, _, _ := net.SplitHostPort(r.RemoteAddr)
	// r.UserAgent() without canonicalising the constant key: the lookup
	// Header.Get makes once the key is canonical.
	var ua string
	if v := r.Header["User-Agent"]; len(v) > 0 {
		ua = v[0]
	}
	rec := Record{
		RemoteIP:  host,
		UserAgent: ua,
		Path:      r.URL.Path,
		Status:    status,
		Bytes:     n,
	}
	s.mu.Lock()
	s.log = append(s.log, rec)
	s.mu.Unlock()
}

// Log returns all requests logged so far in arrival order, as LogSince(0)
// does: a read-only view, not a copy. Requests issued sequentially — by
// one client or by any externally serialized schedule — appear exactly
// in issue order, the contract the measurement windowing relies on.
func (s *Site) Log() []Record {
	return s.LogSince(0)
}

// LogSince returns the requests logged since mark — a LogLen value
// captured earlier — in arrival order, without copying: the window is a
// read-only view of the log, capped at its length, so it stays as it was
// when later requests are logged, and appending to it copies. Callers
// must not write its elements. A mark outside [0, LogLen()] yields an
// empty window.
func (s *Site) LogSince(mark int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.log)
	if mark < 0 || mark >= n {
		return nil
	}
	return s.log[mark:n:n]
}

// LogLen returns the number of requests logged so far without copying the
// log: the cheap way to mark a log window's start.
func (s *Site) LogLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// ContentPages returns a small interlinked site: an index page linking to
// articles and gallery images, mirroring the "basic text, images, and
// links to other pages" of the paper's measurement sites (§5.1).
func ContentPages(domain string) map[string]Page {
	abs := func(p string) string { return "http://" + domain + p }
	return map[string]Page{
		"/": {Body: `<html><head><title>` + domain + `</title></head><body>
<h1>Welcome to ` + domain + `</h1>
<p>Portfolio of original artwork.</p>
<a href="` + abs("/about.html") + `">About</a>
<a href="` + abs("/gallery.html") + `">Gallery</a>
<a href="/blog/post1.html">Latest post</a>
</body></html>`},
		"/about.html": {Body: `<html><body><h1>About</h1>
<p>Contact and biography.</p><a href="/">Home</a></body></html>`},
		"/gallery.html": {Body: `<html><body><h1>Gallery</h1>
<img src="/images/art1.png"><img src="/images/art2.png">
<a href="/images/art1.png">Artwork 1</a>
<a href="/images/art2.png">Artwork 2</a></body></html>`},
		"/blog/post1.html": {Body: `<html><body><h1>Post</h1>
<p>Some writing about process.</p><a href="/gallery.html">Gallery</a></body></html>`},
		"/images/art1.png": {ContentType: "image/png", Body: fakePNG},
		"/images/art2.png": {ContentType: "image/png", Body: fakePNG},
	}
}

// fakePNG is a minimal PNG header followed by filler, enough to be a
// plausible binary asset in logs.
var fakePNG = "\x89PNG\r\n\x1a\n" + strings.Repeat("artbytes", 64)

// WildcardDisallowSite returns the first §5.1 measurement site: a
// robots.txt disallowing all crawlers with the wildcard rule.
func WildcardDisallowSite(domain, ip string) Config {
	robots := "User-agent: *\nDisallow: /\n"
	return Config{
		Domain:    domain,
		IP:        ip,
		RobotsTxt: &robots,
		Pages:     ContentPages(domain),
	}
}

// PerAgentDisallowSite returns the second §5.1 measurement site: a
// robots.txt disallowing each AI user agent individually.
func PerAgentDisallowSite(domain, ip string, agentTokens []string) Config {
	var b strings.Builder
	for _, ua := range agentTokens {
		fmt.Fprintf(&b, "User-agent: %s\nDisallow: /\n\n", ua)
	}
	robots := b.String()
	return Config{
		Domain:    domain,
		IP:        ip,
		RobotsTxt: &robots,
		Pages:     ContentPages(domain),
	}
}
