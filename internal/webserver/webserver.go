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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
// the request passes. Implementations live in internal/blocking and
// internal/proxy.
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
	// IP is the site's advertised address: a virtual alias of the farm
	// listener when it differs from the farm's own address.
	IP string
	// RobotsTxt is served at /robots.txt; nil means the site has no
	// robots.txt (404).
	RobotsTxt *string
	// Pages maps paths (starting with '/') to content.
	Pages map[string]Page
	// Blocker, when set, screens every request (including robots.txt,
	// like real reverse proxies do).
	Blocker Blocker
}

// Validate reports whether the config can be hosted: a non-empty domain
// and a parseable, non-empty IP. Farm.StartSite applies it before
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
	return nil
}

// Record is one logged request, the unit of §5's passive analysis.
type Record struct {
	Time      time.Time
	RemoteIP  string
	UserAgent string
	Path      string
	Status    int
	Bytes     int
}

// logShard is one connection's private slice of the site log. Each
// serving goroutine appends to its own shard under its own mutex, so
// concurrent connections never contend on a site-wide log lock; a global
// sequence number stamped at append time lets Log merge the shards back
// into the exact arrival order a single mutex would have produced.
type logShard struct {
	mu   sync.Mutex
	recs []seqRecord
}

type seqRecord struct {
	seq uint64
	rec Record
}

// Site is a running instrumented website hosted by a Farm (virtual-host
// dispatch on the farm's shared listener). Its measurement surface is the
// request log and the runtime policy swaps.
type Site struct {
	cfg Config

	mu sync.Mutex // guards cfg mutations (robots, blocker, pages)

	farm *Farm

	// The log is sharded per (connection, site): the farm's farmConn owns
	// a connection's shards and folds them into fallback when the
	// connection closes, keeping the shard list proportional to live
	// connections rather than total churn.
	logSeq   atomic.Uint64
	shardsMu sync.Mutex
	shards   []*logShard
	fallback *logShard // records of closed connections

	// hits counts requests served by this site. Site cardinality is
	// unbounded, so this stays a plain per-site atomic (see Hits) rather
	// than an obs registry entry.
	hits atomic.Uint64
}

// Hits returns the number of requests this site has served.
func (s *Site) Hits() uint64 { return s.hits.Load() }

// newSite builds a site and its log machinery for farm f.
func newSite(f *Farm, cfg Config) *Site {
	s := &Site{cfg: cfg, farm: f}
	s.fallback = &logShard{}
	s.shards = []*logShard{s.fallback}
	return s
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

// serve answers one request and appends its record to the given log
// shard.
func (s *Site) serve(w http.ResponseWriter, r *http.Request, sh *logShard) {
	s.hits.Add(1)
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
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	n, _ := io.WriteString(w, body)

	host, _, _ := net.SplitHostPort(r.RemoteAddr)
	rec := Record{
		Time:      time.Now(),
		RemoteIP:  host,
		UserAgent: r.UserAgent(),
		Path:      r.URL.Path,
		Status:    status,
		Bytes:     n,
	}
	sh.mu.Lock()
	sh.recs = append(sh.recs, seqRecord{seq: s.logSeq.Add(1) - 1, rec: rec})
	sh.mu.Unlock()
}

// Log returns a copy of all requests logged so far, merged across the
// per-connection shards into global arrival order. Requests issued
// sequentially — by one client or by any externally serialized schedule —
// appear exactly in issue order, the contract the measurement windowing
// relies on.
func (s *Site) Log() []Record {
	return s.LogSince(0)
}

// LogSince returns the requests logged since mark — a LogLen value
// captured earlier — in global arrival order. Every shard keeps its
// records sequence-sorted (appends are monotonic and retirement merges
// preserve order), so the window is located by binary search per shard
// and the cost is O(window), not O(total log): the incremental view
// monthly flush loops and measurement windows rely on.
//
// Like LogLen, the boundary is exact in quiescent states; a request in
// flight at the mark may land on either side.
func (s *Site) LogSince(mark int) []Record {
	// Hold shardsMu for the whole collection: shard retirement moves
	// records between shards under the same lock, so a reader can never
	// observe the post-drain shard with the pre-merge fallback and lose
	// a window's records. Handlers only touch their own shard's mutex
	// and are not blocked.
	s.shardsMu.Lock()
	seqMark := uint64(mark)
	var all []seqRecord
	for _, sh := range s.shards {
		sh.mu.Lock()
		recs := sh.recs
		i := sort.Search(len(recs), func(i int) bool { return recs[i].seq >= seqMark })
		all = append(all, recs[i:]...)
		sh.mu.Unlock()
	}
	s.shardsMu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Record, len(all))
	for i, sr := range all {
		out[i] = sr.rec
	}
	return out
}

// LogLen returns the number of requests logged so far without copying the
// log. In quiescent states — no request in flight — it equals len(Log()),
// which makes it the cheap way to mark a log window's start.
func (s *Site) LogLen() int {
	return int(s.logSeq.Load())
}

// addShard registers a fresh per-connection shard with the site so Log
// and LogSince merge it. Farm connections call it lazily on a
// connection's first request to each site.
func (s *Site) addShard(sh *logShard) {
	s.shardsMu.Lock()
	s.shards = append(s.shards, sh)
	s.shardsMu.Unlock()
}

// retire folds a closed connection's records into the fallback shard and
// drops the shard, so the shard list tracks live connections instead of
// growing with every connection the site ever served. The connection's
// serve loop has exited by the time the farm retires it, so no handler
// can still be appending to the shard. The whole move happens under shardsMu
// so LogSince (which reads under the same lock) can never see the
// drained shard alongside the pre-merge fallback.
func (s *Site) retire(sh *logShard) {
	s.shardsMu.Lock()
	defer s.shardsMu.Unlock()
	for i, x := range s.shards {
		if x == sh {
			s.shards = append(s.shards[:i], s.shards[i+1:]...)
			break
		}
	}
	sh.mu.Lock()
	recs := sh.recs
	sh.recs = nil
	sh.mu.Unlock()
	if len(recs) == 0 {
		return
	}
	// Merge by sequence so the fallback shard stays sorted: LogSince
	// binary-searches every shard, and a retired connection's records can
	// interleave with those of connections retired earlier.
	s.fallback.mu.Lock()
	s.fallback.recs = mergeBySeq(s.fallback.recs, recs)
	s.fallback.mu.Unlock()
}

// mergeBySeq merges two sequence-sorted record slices.
func mergeBySeq(a, b []seqRecord) []seqRecord {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	if a[len(a)-1].seq < b[0].seq {
		return append(a, b...)
	}
	out := make([]seqRecord, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].seq <= b[j].seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// RequestsMatching returns logged requests whose user agent contains the
// given substring (case-insensitive).
func (s *Site) RequestsMatching(uaSubstring string) []Record {
	var out []Record
	needle := strings.ToLower(uaSubstring)
	for _, rec := range s.Log() {
		if strings.Contains(strings.ToLower(rec.UserAgent), needle) {
			out = append(out, rec)
		}
	}
	return out
}

// ObservedAgents returns the distinct product-token-bearing user agents
// seen in the log, sorted.
func (s *Site) ObservedAgents() []string {
	seen := map[string]bool{}
	for _, rec := range s.Log() {
		seen[rec.UserAgent] = true
	}
	out := make([]string, 0, len(seen))
	for ua := range seen {
		out = append(out, ua)
	}
	sort.Strings(out)
	return out
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
