// Package netsim provides an in-memory IP network that carries real
// net.Conn traffic between simulated hosts.
//
// The paper's §5 experiments identify crawlers by the source IP addresses
// observed in web server logs (some companies publish crawl ranges, some do
// not). Loopback TCP cannot reproduce that: every connection arrives from
// 127.0.0.1. netsim instead implements net.Listener and a dialer on top of
// buffered duplex pipe pairs (see pipe.go) whose LocalAddr/RemoteAddr carry
// the simulated addresses, so servers read the simulated source IP of
// every connection. Unlike net.Pipe, reads and writes do not rendezvous
// per byte: each direction buffers up to a TCP-window's worth of data,
// and deadlines are honored.
//
// A Network also contains a miniature name service (Register) so HTTP
// clients can use ordinary host-based URLs.
//
// HTTP inside the network frames no bytes (http.go): ServeHTTP records
// a handler on its listener, and HTTPClient's requests, Get's included,
// call it in-process with the client's source IP as RemoteAddr. Serve
// runs a conn handler, such as policyd's frame loop, on every connection
// a listener accepts.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// errConnRefused is returned by Dial when no listener is bound to the
// target address.
var errConnRefused = errors.New("netsim: connection refused")

// errNameNotFound is returned when a hostname has no registered address.
var errNameNotFound = errors.New("netsim: no such host")

// Network is an in-memory IP network. The zero value is not usable; create
// one with New. All methods are safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener // key "ip:port"
	names     map[string]string    // lowercase hostname -> ip
	ephemeral atomic.Uint32
	latency   time.Duration // delay on every routed dial or HTTP request; 0 = none
}

// New returns an empty network.
func New() *Network {
	return &Network{
		listeners: make(map[string]*listener),
		names:     make(map[string]string),
	}
}

// Register binds hostname to ip in the network's name service, replacing
// any previous binding. Hostnames are case-insensitive.
func (n *Network) Register(hostname, ip string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.names[strings.ToLower(hostname)] = ip
}

// resolve returns the IP bound to hostname, or hostname itself when it
// parses as an IP (a registered name is looked up first, so resolving a
// name allocates nothing); n.mu must be held.
func (n *Network) resolve(hostname string) (string, error) {
	if ip, ok := n.names[strings.ToLower(hostname)]; ok {
		return ip, nil
	}
	if net.ParseIP(hostname) != nil {
		return hostname, nil
	}
	return "", fmt.Errorf("%w: %s", errNameNotFound, hostname)
}

// Listen binds a listener to ip:port. Binding an address that is already
// bound is an error. Closing the listener releases the address.
func (n *Network) Listen(ip string, port int) (net.Listener, error) {
	parsed := net.ParseIP(ip)
	if parsed == nil {
		return nil, fmt.Errorf("netsim: invalid listen IP %q", ip)
	}
	key := net.JoinHostPort(ip, strconv.Itoa(port))
	l := &listener{
		network: n,
		key:     key,
		addr:    &net.TCPAddr{IP: parsed, Port: port},
	}
	l.cond.L = &l.mu
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[key]; exists {
		return nil, fmt.Errorf("netsim: address %s already in use", key)
	}
	n.listeners[key] = l
	return l, nil
}

// AddAlias makes aliasIP:port a second address of target, a listener
// previously returned by Listen on this network: dials to the alias are
// accepted by the same listener, and the server side of each such
// connection reports the alias as its local address. This is virtual IP
// aliasing — one accept loop serving many advertised site IPs — and is
// what lets a multi-site farm advertise a distinct per-site IP without a
// per-site listener. Closing the listener releases every alias.
func (n *Network) AddAlias(aliasIP string, port int, target net.Listener) error {
	if net.ParseIP(aliasIP) == nil {
		return fmt.Errorf("netsim: invalid alias IP %q", aliasIP)
	}
	l, ok := target.(*listener)
	if !ok || l.network != n {
		return fmt.Errorf("netsim: alias target is not a listener of this network")
	}
	key := net.JoinHostPort(aliasIP, strconv.Itoa(port))
	// Hold l.mu across the whole registration so it cannot interleave
	// with Close: either the alias lands before Close snapshots the
	// alias list (and is released with the listener), or Close has
	// already marked the listener and the alias is refused — never a
	// leaked address pointing at a dead listener.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("netsim: alias target %s is closed", l.key)
	}
	n.mu.Lock()
	if _, exists := n.listeners[key]; exists {
		n.mu.Unlock()
		return fmt.Errorf("netsim: address %s already in use", key)
	}
	n.listeners[key] = l
	n.mu.Unlock()
	l.aliasMu.Lock()
	l.aliases = append(l.aliases, key)
	l.aliasMu.Unlock()
	return nil
}

// RemoveAlias releases an alias added with AddAlias. Removing an address
// that is not an alias is a no-op, so callers can tear down sites without
// tracking whether their IP was aliased or primary.
func (n *Network) RemoveAlias(aliasIP string, port int) {
	key := net.JoinHostPort(aliasIP, strconv.Itoa(port))
	n.mu.Lock()
	l, ok := n.listeners[key]
	if !ok || l.key == key {
		n.mu.Unlock()
		return // unknown, or the listener's primary address
	}
	delete(n.listeners, key)
	n.mu.Unlock()
	l.aliasMu.Lock()
	for i, k := range l.aliases {
		if k == key {
			l.aliases = append(l.aliases[:i], l.aliases[i+1:]...)
			break
		}
	}
	l.aliasMu.Unlock()
}

// Dial opens a connection from sourceIP to addr ("host:port", where host
// may be a registered name or a literal IP). It honors ctx cancellation.
func (n *Network) Dial(ctx context.Context, sourceIP, addr string) (net.Conn, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad address %q: %w", addr, err)
	}
	r, err := n.route(ctx, host, port)
	if err != nil {
		return nil, err
	}
	clientAddr := &net.TCPAddr{IP: net.ParseIP(sourceIP), Port: n.ephemeralPort()}
	serverAddr := &net.TCPAddr{IP: net.ParseIP(r.ip), Port: r.port}
	cc, sc := newConnPair(clientAddr, serverAddr)
	if reason := r.l.enqueue(sc); reason != "" {
		cc.Close()
		sc.Close()
		return nil, fmt.Errorf("%w: %s (%s)", errConnRefused, appendAddr(nil, r.ip, r.port), reason)
	}
	return cc, nil
}

// route is where a request to a host and port lands: the listener bound
// to the address and the handler ServeHTTP recorded on it, if any.
type route struct {
	l    *listener
	h    http.Handler
	ip   string
	port int
}

// route resolves host and finds the listener bound to its address on
// port in one hold of n.mu, then waits out the network's latency and
// checks ctx: the step Dial and the HTTP client share. The errors are
// Dial's: a bad port, an unknown host, a refused address or ctx's.
func (n *Network) route(ctx context.Context, host, port string) (route, error) {
	p, err := strconv.Atoi(port)
	if err != nil {
		return route{}, fmt.Errorf("netsim: bad port %q: %w", port, err)
	}
	var key [64]byte
	n.mu.Lock()
	ip, err := n.resolve(host)
	var r route
	if err == nil {
		// The map probe on the key's bytes does not allocate.
		if l := n.listeners[string(appendAddr(key[:0], ip, p))]; l != nil {
			r = route{l: l, h: l.handler, ip: ip, port: p}
		}
	}
	latency := n.latency
	n.mu.Unlock()
	if err != nil {
		return route{}, err
	}
	if r.l == nil {
		return route{}, fmt.Errorf("%w: %s", errConnRefused, appendAddr(nil, ip, p))
	}
	if latency > 0 {
		timer := time.NewTimer(latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return route{}, ctx.Err()
		}
	}
	select {
	case <-ctx.Done(): // no lock once Done has been made, unlike Err
		return route{}, ctx.Err()
	default:
	}
	return r, nil
}

// appendAddr appends net.JoinHostPort(ip, strconv.Itoa(port)) to b.
func appendAddr(b []byte, ip string, port int) []byte {
	if strings.IndexByte(ip, ':') >= 0 {
		b = append(append(append(b, '['), ip...), ']')
	} else {
		b = append(b, ip...)
	}
	return strconv.AppendInt(append(b, ':'), int64(port), 10)
}

// ephemeralPort returns the next client port, as a kernel assigns one
// to an outgoing connection.
func (n *Network) ephemeralPort() int {
	return 32768 + int(n.ephemeral.Add(1)%28000)
}

// HTTPClient returns an http.Client whose requests originate from
// sourceIP and are routed on this network: each resolves and finds its
// listener as Dial does, with Dial's errors and latency, and calls the
// handler ServeHTTP recorded there in-process (see http.go), under the
// request's ctx. Handlers see the client's simulated source IP as
// RemoteAddr, so server logs attribute every request to it. A request to
// a listener ServeHTTP does not serve fails with an error.
//
// The client speaks GET, HEAD and POST with a known body length to
// http:// URLs; any other request fails with an error naming what it
// asked for. It carries no overall request timeout: callers that want a
// bound pass a deadline context per request, as every experiment in
// this repo does. A caller of client.Do may instead set Timeout on the
// returned client; Get refuses a client with Timeout set, since it does
// not go through client.Do.
func (n *Network) HTTPClient(sourceIP string) *http.Client {
	return &http.Client{Transport: newTransport(n, sourceIP)}
}

// Serve accepts connections on ln and runs serve on each, on its own
// goroutine; serve owns the connection and closes it before returning.
// When Accept fails — ln was closed — Serve closes every live
// connection, waits for their serve calls to return, as
// http.Server.Close does, and returns the accept error. policyd's frame
// listeners run on it.
func Serve(ln net.Listener, serve func(net.Conn)) error {
	var (
		mu      sync.Mutex
		live    = make(map[net.Conn]struct{})
		serving sync.WaitGroup
	)
	for {
		c, err := ln.Accept()
		if err != nil {
			mu.Lock()
			for c := range live {
				c.Close()
			}
			mu.Unlock()
			serving.Wait()
			return err
		}
		mu.Lock()
		live[c] = struct{}{}
		mu.Unlock()
		serving.Add(1)
		go func() {
			defer serving.Done()
			serve(c)
			mu.Lock()
			delete(live, c)
			mu.Unlock()
		}()
	}
}

// maxBacklog bounds a listener's accept queue, like a kernel SYN queue:
// dials beyond it are refused rather than queued without bound. High
// enough that a listener with a live accept loop never hits it.
const maxBacklog = 1024

// listener is a bound address with a bounded accept queue. Close drains
// the queue and closes every conn still in it, so a dialer whose
// connection was accepted into the backlog but never served observes a
// reset on first use instead of blocking forever.
type listener struct {
	network *Network
	key     string
	addr    net.Addr

	// aliases are additional "ip:port" keys in network.listeners that
	// resolve to this listener (see Network.AddAlias), guarded separately
	// so alias bookkeeping never contends with the accept path.
	aliasMu sync.Mutex
	aliases []string

	// handler is what ServeHTTP serves the listener with; the HTTP
	// client calls it in-process. Guarded by network.mu, which route holds to read it.
	handler http.Handler

	mu     sync.Mutex
	cond   sync.Cond
	queue  []net.Conn
	closed bool
}

// enqueue hands the server end of a new connection to the listener. A
// non-empty return is the refusal reason.
func (l *listener) enqueue(c net.Conn) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return "listener closed"
	}
	if len(l.queue) >= maxBacklog {
		return "backlog full"
	}
	l.queue = append(l.queue, c)
	l.cond.Signal()
	return ""
}

// Accept waits for an inbound connection.
func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.queue) > 0 {
		c := l.queue[0]
		l.queue = l.queue[1:]
		return c, nil
	}
	return nil, net.ErrClosed
}

// Close releases the bound address. Dials after the close fail with
// errConnRefused; connections already queued in the backlog are closed,
// so their dialers see errConnReset on first read or write.
func (l *listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	drained := l.queue
	l.queue = nil
	l.cond.Broadcast()
	l.mu.Unlock()

	l.aliasMu.Lock()
	aliases := l.aliases
	l.aliases = nil
	l.aliasMu.Unlock()
	l.network.mu.Lock()
	delete(l.network.listeners, l.key)
	for _, key := range aliases {
		delete(l.network.listeners, key)
	}
	l.network.mu.Unlock()

	for _, c := range drained {
		c.Close()
	}
	return nil
}

// Addr returns the bound address.
func (l *listener) Addr() net.Addr { return l.addr }
