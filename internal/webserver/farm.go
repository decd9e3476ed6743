package webserver

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
)

// Farm hosts any number of sites on one netsim network behind a single
// shared listener, dispatching each request to its site by the Host
// header — name-based virtual hosting. Adding a site is a map insert
// plus (when the site advertises its own IP) a virtual-IP alias of the
// farm listener — no per-site listener, accept loop or server, which at
// survey scale (thousands of sites per network) used to be ~30% of the
// run.
//
// Sites keep their full measurement contract under a farm: each site has
// its own request log with the per-site global sequence, LogSince
// windows, and deterministic per-connection ordering; every request
// still carries the client's simulated source IP; and robots.txt /
// blocker swaps apply per site. Requests for a Host no site claims are
// answered 421 Misdirected Request.
//
// All methods are safe for concurrent use, including StartSite and
// Remove while requests are in flight.
type Farm struct {
	nw   *netsim.Network
	ip   string
	ln   net.Listener
	fsrv *fastServer

	// gen invalidates per-connection dispatch memos: it bumps after every
	// hosts-map mutation (StartSite, Remove, Close), so a memo stamped
	// with an older generation re-resolves through the map once.
	gen atomic.Uint64

	mu    sync.RWMutex
	hosts map[string]*Site // lowercased Host (domain or IP) -> site
	// members is the set of live sites, for idempotent removal and Close.
	members map[*Site]bool
	// aliasRefs counts member sites advertising each aliased IP so the
	// alias is released only when its last site is removed.
	aliasRefs map[string]int
	closed    bool

	unmatched atomic.Uint64

	connMu sync.Mutex
	conns  map[net.Conn]*farmConn
}

// farmConn tracks one farm connection's per-site log shards. A
// keep-alive connection normally speaks to a single site (transports
// pool per host), but nothing stops a client from switching Host headers
// mid-connection, so shards are kept per (connection, site).
type farmConn struct {
	mu     sync.Mutex
	shards map[*Site]*logShard

	// memo caches the connection's last dispatch result. Connections
	// almost always speak to one Host, so the hot path is one atomic
	// load plus a string compare instead of an RLock'd map probe and a
	// shard-map lookup per request.
	memo atomic.Pointer[siteMemo]
}

// siteMemo is one immutable dispatch result, valid while the farm's
// generation is unchanged.
type siteMemo struct {
	gen   uint64
	key   string
	site  *Site
	shard *logShard
}

// shardFor returns the connection's shard for the site, creating and
// registering it on first use.
func (fc *farmConn) shardFor(s *Site) *logShard {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	sh := fc.shards[s]
	if sh == nil {
		sh = &logShard{}
		fc.shards[s] = sh
		s.addShard(sh)
	}
	return sh
}

// NewFarm binds the farm's shared listener at ip:80 on nw. Every site
// subsequently added with StartSite is served from this one listener;
// sites whose Config.IP differs from the farm address are reachable at
// their own IP via a netsim virtual-IP alias.
func NewFarm(nw *netsim.Network, ip string) (*Farm, error) {
	ln, err := nw.Listen(ip, 80)
	if err != nil {
		return nil, fmt.Errorf("webserver: farm listener: %w", err)
	}
	f := &Farm{
		nw:        nw,
		ip:        ip,
		ln:        ln,
		hosts:     make(map[string]*Site),
		members:   make(map[*Site]bool),
		aliasRefs: make(map[string]int),
		conns:     make(map[net.Conn]*farmConn),
	}
	f.fsrv = startFastServer(ln, f)
	return f, nil
}

// IP returns the farm listener's address.
func (f *Farm) IP() string { return f.ip }

// Unmatched returns the number of requests that named a Host no site
// claims (answered 421).
func (f *Farm) Unmatched() uint64 { return f.unmatched.Load() }

// Len returns the number of sites currently hosted.
func (f *Farm) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.members)
}

// StartSite adds a site to the farm and returns it, registering
// cfg.Domain in the network's name service and aliasing cfg.IP to the
// farm listener when it differs from the farm address. Duplicate host
// registration is an error — a second site may not silently shadow the
// first — as is an invalid Config.
func (f *Farm) StartSite(cfg Config) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	domainKey := strings.ToLower(cfg.Domain)
	s := newSite(f, cfg)

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("webserver: farm is closed")
	}
	if prev := f.hosts[domainKey]; prev != nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("webserver: host %q already registered on this farm", cfg.Domain)
	}
	if cfg.IP != f.ip {
		if f.aliasRefs[cfg.IP] == 0 {
			if err := f.nw.AddAlias(cfg.IP, 80, f.ln); err != nil {
				f.mu.Unlock()
				return nil, fmt.Errorf("webserver: site IP %s: %w", cfg.IP, err)
			}
		}
		f.aliasRefs[cfg.IP]++
	}
	f.hosts[domainKey] = s
	// Also answer requests that address the site by literal IP, unless
	// another site already claims that IP (sites may share one).
	if f.hosts[cfg.IP] == nil {
		f.hosts[cfg.IP] = s
	}
	f.members[s] = true
	f.mu.Unlock()
	f.gen.Add(1)

	f.nw.Register(cfg.Domain, cfg.IP)
	return s, nil
}

// Remove takes a site out of the farm: its Host stops resolving (421),
// its IP alias is released once no other site advertises it, and the
// connections that served it are closed. The site's log remains
// readable. Removing a site twice, or one the farm does not host, is a
// no-op. Site.Close delegates here.
func (f *Farm) Remove(s *Site) error {
	f.mu.Lock()
	if !f.members[s] {
		f.mu.Unlock()
		return nil
	}
	delete(f.members, s)
	domainKey := strings.ToLower(s.cfg.Domain)
	if f.hosts[domainKey] == s {
		delete(f.hosts, domainKey)
	}
	if f.hosts[s.cfg.IP] == s {
		delete(f.hosts, s.cfg.IP)
		// Hand literal-IP dispatch to a surviving site advertising the
		// same address, so sharing an IP with a removed neighbour does
		// not silence it for dial-by-IP clients. Of several survivors the
		// smallest domain wins: map order must not pick who answers.
		var heir *Site
		for other := range f.members {
			if other.cfg.IP == s.cfg.IP &&
				(heir == nil || strings.ToLower(other.cfg.Domain) < strings.ToLower(heir.cfg.Domain)) {
				heir = other
			}
		}
		if heir != nil {
			f.hosts[s.cfg.IP] = heir
		}
	}
	if s.cfg.IP != f.ip {
		f.aliasRefs[s.cfg.IP]--
		if f.aliasRefs[s.cfg.IP] <= 0 {
			delete(f.aliasRefs, s.cfg.IP)
			f.nw.RemoveAlias(s.cfg.IP, 80)
		}
	}
	f.mu.Unlock()
	f.gen.Add(1)

	// Close the connections that served the removed site: their
	// goroutines and ring buffers are released instead of idling until
	// farm Close — at scenario scale, thousands of retired sites' worth.
	// A client with a pooled idle connection transparently redials; an
	// in-flight request observes a reset.
	f.connMu.Lock()
	var stale []net.Conn
	for c, fc := range f.conns {
		fc.mu.Lock()
		if _, ok := fc.shards[s]; ok {
			stale = append(stale, c)
		}
		fc.mu.Unlock()
	}
	f.connMu.Unlock()
	for _, c := range stale {
		c.Close()
	}
	return nil
}

// Close shuts the farm down: the shared listener and server stop and all
// sites are removed. Site logs remain readable.
func (f *Farm) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.members = make(map[*Site]bool)
	f.hosts = make(map[string]*Site)
	f.aliasRefs = make(map[string]int)
	f.mu.Unlock()
	f.gen.Add(1)

	return f.fsrv.Close()
}

// handleReq resolves the request's Host to a site and serves it. The
// per-connection memo short-circuits the host-map RLock and the shard
// lookup for the dominant one-conn-one-site case; any hosts-map
// mutation bumps f.gen, which invalidates every memo at once.
func (f *Farm) handleReq(fc *farmConn, w http.ResponseWriter, r *http.Request) {
	key := hostKey(r.Host)
	gen := f.gen.Load()
	if m := fc.memo.Load(); m != nil && m.gen == gen && m.key == key {
		mFarmRequests.Inc()
		mFarmMemoHits.Inc()
		m.site.serve(w, r, m.shard)
		return
	}
	mFarmMemoMisses.Inc()
	f.mu.RLock()
	s := f.hosts[key]
	f.mu.RUnlock()
	if s == nil {
		f.unmatched.Add(1)
		mFarmUnmatched.Inc()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusMisdirectedRequest)
		io.WriteString(w, "421 misdirected request: no site for host\n")
		return
	}
	mFarmRequests.Inc()
	sh := fc.shardFor(s)
	fc.memo.Store(&siteMemo{gen: gen, key: key, site: s, shard: sh})
	s.serve(w, r, sh)
}

// openConn registers a freshly accepted connection and returns the
// carrier for its per-site log shards and dispatch memo.
func (f *Farm) openConn(c net.Conn) *farmConn {
	fc := &farmConn{shards: make(map[*Site]*logShard)}
	f.connMu.Lock()
	f.conns[c] = fc
	f.connMu.Unlock()
	mFarmActiveConns.Add(1)
	return fc
}

// retireConn retires every per-site shard the closed connection
// accumulated.
func (f *Farm) retireConn(c net.Conn) {
	f.connMu.Lock()
	fc, ok := f.conns[c]
	if ok {
		delete(f.conns, c)
	}
	f.connMu.Unlock()
	if !ok {
		return
	}
	mFarmActiveConns.Add(-1)
	fc.mu.Lock()
	shards := fc.shards
	fc.shards = nil
	fc.mu.Unlock()
	for s, sh := range shards {
		s.retire(sh)
	}
}

// hostKey normalizes a Host header for dispatch: the optional port is
// dropped and the name lowercased. The fast path — a lowercase host with
// no port, which is what every client in this codebase sends — does not
// allocate.
func hostKey(h string) string {
	if host, _, err := net.SplitHostPort(h); err == nil {
		h = host
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; c >= 'A' && c <= 'Z' {
			return strings.ToLower(h)
		}
	}
	return h
}
