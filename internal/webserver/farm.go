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

// Farm hosts any number of sites on one netsim network behind a single
// shared listener, dispatching each request to its site by the Host
// header — name-based virtual hosting. Adding a site is a map insert
// plus (when the site advertises its own IP) a virtual-IP alias of the
// farm listener — no per-site listener, accept loop or server, which at
// survey scale (thousands of sites per network) used to be ~30% of the
// run.
//
// Sites keep their full measurement contract under a farm: each site has
// its own append-only request log with LogSince windows; every request
// still carries the client's simulated source IP; and robots.txt /
// blocker swaps apply per site. Requests for a Host no site claims are
// answered 421 Misdirected Request.
//
// The farm is its own http.Handler, served on its listener by
// netsim.ServeHTTP: netsim's client calls it in-process, and a stock
// client's wire connections reach it through a stock http.Server. It
// keeps no per-connection state.
//
// All methods are safe for concurrent use, including StartSite and
// Remove while requests are in flight.
type Farm struct {
	nw *netsim.Network
	ip string
	ln net.Listener
	// wait returns once the listener is closed and every serve loop has
	// exited.
	wait func() error

	mu    sync.RWMutex
	hosts map[string]*Site // lowercased Host (domain or IP) -> site
	// members is the set of live sites, for idempotent removal and Close.
	members map[*Site]bool
	// aliasRefs counts member sites advertising each aliased IP so the
	// alias is released only when its last site is removed.
	aliasRefs map[string]int
	closed    bool
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
	}
	f.wait = netsim.ServeHTTP(ln, f)
	return f, nil
}

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
	s := &Site{cfg: cfg, farm: f}

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

	f.nw.Register(cfg.Domain, cfg.IP)
	return s, nil
}

// Remove takes a site out of the farm: its Host stops resolving (421),
// and its IP alias is released once no other site advertises it, so a
// fresh request to that IP is refused. A wire connection that served it
// stays open and is answered 421 for its Host. The site's log remains
// readable. Removing a site twice, or one the farm does not host, is a
// no-op. Site.Close delegates here.
func (f *Farm) Remove(s *Site) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.members[s] {
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
	return nil
}

// Close shuts the farm down: the shared listener and every live
// connection close and all sites are removed. It returns once every
// serve loop has exited. Site logs remain readable.
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

	err := f.ln.Close()
	f.wait()
	return err
}

// ServeHTTP resolves the request's Host to a site and serves it, or
// answers 421 when no site claims the Host.
func (f *Farm) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.RLock()
	s := f.hosts[hostKey(r.Host)]
	f.mu.RUnlock()
	if s == nil {
		mFarmUnmatched.Inc()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusMisdirectedRequest)
		io.WriteString(w, "421 misdirected request: no site for host\n")
		return
	}
	mFarmRequests.Inc()
	s.serve(w, r)
}

// hostKey normalizes a Host header for dispatch: the optional port is
// dropped and the name lowercased. The fast path — a lowercase host with
// no port, which is what every client in this codebase sends — does not
// allocate.
func hostKey(h string) string {
	// SplitHostPort allocates its error for a host without a port, so it
	// only sees hosts that may carry one.
	if strings.IndexByte(h, ':') >= 0 {
		if host, _, err := net.SplitHostPort(h); err == nil {
			h = host
		}
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; c >= 'A' && c <= 'Z' {
			return strings.ToLower(h)
		}
	}
	return h
}
