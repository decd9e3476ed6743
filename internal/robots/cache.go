package robots

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultCacheSize is the entry cap of the package-level shared cache.
// Robots bodies in the simulations are highly repetitive (site templates,
// managed rule lists, the two measurement policies), so even a modest cap
// achieves a near-perfect hit rate.
const DefaultCacheSize = 4096

// Cache is a concurrency-safe, content-keyed parse cache: the same body
// parsed under the same Profile returns the same *Robots. Parsing is
// singleflighted — concurrent first requests for one body parse it once
// while the others wait — and entries are evicted least-recently-used
// beyond the cap.
//
// The content key is normalized before lookup (for profiles where the
// normalization is semantics-preserving, see normalizeKey): whole-line
// comments and Sitemap directives — the only lines that make one site's
// rendered robots.txt differ from the next site's — are stripped, so a
// corpus of tens of thousands of near-identical bodies collapses to the
// few hundred underlying policy templates. The cached *Robots is the
// parse of the normalized body; its rule semantics are identical, but
// Sitemaps, comment-derived line numbers, and lint warnings for the
// stripped lines are absent. Every hot-path consumer reads only rule
// semantics; callers that need the file verbatim (linting, diffing)
// parse directly.
//
// Sharing parsed policies is safe because *Robots is immutable after
// Parse: every accessor builds its answer from the parsed groups without
// mutating them (the per-agent access memo in match.go is itself
// concurrency-safe).
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used; Value is *cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// CacheStats is a point-in-time view of a cache's effectiveness. The
// normalized content key is judged by Entries staying near the number of
// distinct policy templates while Hits grows with every re-parse
// avoided.
type CacheStats struct {
	// Hits counts lookups answered from a previous parse.
	Hits uint64
	// Misses counts lookups that had to parse.
	Misses uint64
	// Entries is the current number of cached parses (including any in
	// flight).
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache's hit/miss counters and current size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: entries,
	}
}

type cacheKey struct {
	profile Profile
	body    string
}

type cacheEntry struct {
	key  cacheKey
	done chan struct{} // closed once rb is set
	rb   *Robots
}

// NewCache returns a cache holding at most maxEntries parsed files;
// maxEntries <= 0 means DefaultCacheSize.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	return &Cache{
		max:     maxEntries,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
	}
}

// Parse returns the parsed form of body under the default profile,
// reusing a previous parse of identical content when available.
func (c *Cache) Parse(body string) *Robots {
	return c.ParseProfile(body, ProfileGoogle)
}

// ParseProfile returns the parsed form of body under profile p, reusing a
// previous parse of equivalent content when available (see the type
// comment for the normalized-key contract).
func (c *Cache) ParseProfile(body string, p Profile) *Robots {
	// Comments are group-transparent in every profile except the
	// BlankLineBreaksGroups reproductions, where stripping a comment line
	// would merge groups the buggy parser splits; those profiles key (and
	// parse) the body verbatim.
	if !p.BlankLineBreaksGroups {
		body = normalizeKey(body)
	}
	key := cacheKey{profile: p, body: body}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.rb
	}
	c.misses.Add(1)
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.mu.Unlock()

	// Parse outside the lock; waiters block on done, not on the mutex. An
	// entry evicted while in flight still completes for its waiters.
	e.rb = ParseStringProfile(body, p)
	close(e.done)
	return e.rb
}

// normalizeKey strips the lines that differ between per-site renderings
// of one policy template but cannot change rule semantics under
// comment-transparent profiles: whole-line comments ("# robots.txt for
// example.com") and the standalone Sitemap directive (RFC 9309 §2.2.4:
// "not part of any group"), which carries the site's own URL. The ~40k
// near-identical corpus bodies collapse to the few hundred underlying
// templates under this key. Bodies containing no such line — every
// hand-written policy in the simulations' hot paths — are returned
// as-is, without allocating.
func normalizeKey(body string) string {
	strip := false
	rest := body
	for len(rest) > 0 {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if strippableLine(line) {
			strip = true
			break
		}
	}
	if !strip {
		return body
	}
	var b strings.Builder
	b.Grow(len(body))
	rest = body
	for len(rest) > 0 {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i+1], rest[i+1:]
		} else {
			rest = ""
		}
		if !strippableLine(line) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// strippableLine reports whether the line (with or without its trailing
// newline) is a whole-line comment or a Sitemap directive.
func strippableLine(line string) bool {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	if i < len(line) && line[i] == '#' {
		return true
	}
	const sm, smLen = "sitemap", 7
	rest := line[i:]
	if len(rest) >= smLen && strings.EqualFold(rest[:smLen], sm) {
		rest = rest[smLen:]
	} else if len(rest) >= smLen+1 && strings.EqualFold(rest[:4], "site") && rest[4] == '-' && strings.EqualFold(rest[5:smLen+1], "map") {
		rest = rest[smLen+1:]
	} else {
		return false
	}
	for len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t') {
		rest = rest[1:]
	}
	return len(rest) > 0 && rest[0] == ':'
}

// EqualNormalized reports whether two robots.txt bodies are equivalent
// under the cache's normalized content key: identical once whole-line
// comments and Sitemap directives are stripped, and therefore identical
// in rule semantics under every comment-transparent profile. Incremental
// snapshot recompilation uses this to prove a host's policy unchanged
// between corpus months without re-parsing either body; the common cases
// (bit-identical, or sharing no strippable lines) compare without
// allocating.
func EqualNormalized(a, b string) bool {
	if a == b {
		return true
	}
	return normalizeKey(a) == normalizeKey(b)
}

// Len returns the number of cached entries (including in-flight parses).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// sharedCache backs ParseCached: one process-wide policy cache shared
// by the crawl hot paths (crawler fetches, blocking surveys, proxy robots
// checks, scenario policy updates).
var sharedCache = NewCache(DefaultCacheSize)

// ParseCached parses a robots.txt body through the shared process-wide
// cache: identical bodies return the identical *Robots. Use it on hot
// paths that repeatedly see the same policies; results must be treated as
// read-only (all exported accessors are).
func ParseCached(body string) *Robots {
	return sharedCache.Parse(body)
}

// SharedCacheStats returns the process-wide cache's hit/miss counters —
// the proof line for the normalized content key: corpus-scale workloads
// should show entries near the template count and a hit rate near 1.
func SharedCacheStats() CacheStats {
	return sharedCache.Stats()
}
