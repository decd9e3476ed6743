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
// handler, dispatching each request to its site by the Host header —
// name-based virtual hosting. Adding a site is a map insert plus, when
// the site advertises an IP the farm does not serve yet, one
// netsim.Network.Handle binding of the farm at that IP — no per-site
// server.
//
// Sites keep their full measurement contract under a farm: each site has
// its own append-only request log, read through LogSince windows that
// are read-only views, not copies; every request
// still carries the client's simulated source IP; and robots.txt /
// blocker swaps apply per site. Requests for a Host no site claims are
// answered 421 Misdirected Request.
//
// The farm is its own http.Handler, bound at its own IP and at each
// site IP: netsim's client calls it in-process. It keeps no
// per-connection state and starts no goroutine.
//
// All methods are safe for concurrent use, including StartSite and
// Remove while requests are in flight.
type Farm struct {
	nw *netsim.Network
	ip string

	mu    sync.RWMutex
	hosts map[string]*Site // lowercased Host (domain or IP) -> site
	// members is the set of live sites, for idempotent removal and Close.
	members map[*Site]bool
	// bound holds each IP the farm is bound at, port 80, so that a site
	// IP is released only when its last site is removed.
	bound  map[string]ipBinding
	closed bool
}

// ipBinding is one of the farm's addresses.
type ipBinding struct {
	release func()
	sites   int // member sites advertising the IP
}

// NewFarm binds the farm at ip:80 on nw. Every site subsequently added
// with StartSite is served by the farm there, and at its own IP when
// its Config.IP differs from the farm address.
func NewFarm(nw *netsim.Network, ip string) (*Farm, error) {
	f := &Farm{
		nw:      nw,
		ip:      ip,
		hosts:   make(map[string]*Site),
		members: make(map[*Site]bool),
		bound:   make(map[string]ipBinding),
	}
	release, err := nw.Handle(ip, 80, f)
	if err != nil {
		return nil, fmt.Errorf("webserver: farm address %s: %w", ip, err)
	}
	f.bound[ip] = ipBinding{release: release}
	return f, nil
}

// Len returns the number of sites currently hosted.
func (f *Farm) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.members)
}

// StartSite adds a site to the farm and returns it, registering
// cfg.Domain in the network's name service and binding the farm at
// cfg.IP when no other site advertises it. Duplicate host
// registration is an error — a second site may not silently shadow the
// first — as is an invalid Config.
func (f *Farm) StartSite(cfg Config) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	domainKey := strings.ToLower(cfg.Domain)
	s := &Site{cfg: cfg, farm: f, log: make([]Record, 0, cfg.LogCap)}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("webserver: farm is closed")
	}
	if prev := f.hosts[domainKey]; prev != nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("webserver: host %q already registered on this farm", cfg.Domain)
	}
	b, ok := f.bound[cfg.IP]
	if !ok {
		release, err := f.nw.Handle(cfg.IP, 80, f)
		if err != nil {
			f.mu.Unlock()
			return nil, fmt.Errorf("webserver: site IP %s: %w", cfg.IP, err)
		}
		b.release = release
	}
	b.sites++
	f.bound[cfg.IP] = b
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
// and its IP is released once no other site advertises it, so a fresh
// request to that IP is refused; the farm's own IP stays bound. The
// site's log remains readable. Removing a site twice, or one the farm
// does not host, is a no-op. Site.Close delegates here.
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
		// not silence it for clients that address it by IP. Of several
		// survivors the smallest domain wins: map order must not pick
		// who answers.
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
	b := f.bound[s.cfg.IP]
	b.sites--
	if b.sites == 0 && s.cfg.IP != f.ip {
		b.release()
		delete(f.bound, s.cfg.IP)
	} else {
		f.bound[s.cfg.IP] = b
	}
	return nil
}

// Close shuts the farm down: every address it is bound at is released
// and all sites are removed. Site logs remain readable.
func (f *Farm) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.members = make(map[*Site]bool)
	f.hosts = make(map[string]*Site)
	for _, b := range f.bound {
		b.release()
	}
	f.bound = nil
	return nil
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
