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
// An address is bound either to a listener, whose connections carry
// frames (Listen, Dial, Serve — policyd's frame loop runs on them), or
// to an HTTP handler (Handle). HTTP inside the network frames no bytes
// (http.go): HTTPClient's requests, Get's included, call the handler
// bound at their address in-process with the client's source IP as
// RemoteAddr.
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
)

// errConnRefused is returned by Dial when no listener is bound to the
// target address, and by an HTTP request when nothing is.
var errConnRefused = errors.New("netsim: connection refused")

// errNameNotFound is returned when a hostname has no registered address.
var errNameNotFound = errors.New("netsim: no such host")

// Network is an in-memory IP network. The zero value is not usable; create
// one with New. All methods are safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	addrs     map[string]*binding // key "ip:port"
	names     map[string]string   // lowercase hostname -> ip
	ephemeral atomic.Uint32
}

// New returns an empty network.
func New() *Network {
	return &Network{
		addrs: make(map[string]*binding),
		names: make(map[string]string),
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
// name allocates nothing); n.mu must be held. Names are registered
// lowercased, so hostname is looked up as given before it is lowercased.
func (n *Network) resolve(hostname string) (string, error) {
	if ip, ok := n.names[hostname]; ok {
		return ip, nil
	}
	if ip, ok := n.names[strings.ToLower(hostname)]; ok {
		return ip, nil
	}
	if net.ParseIP(hostname) != nil {
		return hostname, nil
	}
	return "", fmt.Errorf("%w: %s", errNameNotFound, hostname)
}

// binding is what an address is bound to: a listener, which Dial
// reaches, or a handler, which the HTTP client calls.
type binding struct {
	l *listener
	h http.Handler
}

// bind binds b at ip:port and returns its key. Binding an invalid IP,
// or an address already bound to a listener or a handler, is an error.
func (n *Network) bind(ip string, port int, b *binding) (string, error) {
	if net.ParseIP(ip) == nil {
		return "", fmt.Errorf("netsim: invalid IP %q", ip)
	}
	key := net.JoinHostPort(ip, strconv.Itoa(port))
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.addrs[key]; exists {
		return "", fmt.Errorf("netsim: address %s already in use", key)
	}
	n.addrs[key] = b
	return key, nil
}

// Listen binds a listener to ip:port. Binding an address that is already
// bound is an error. Closing the listener releases the address.
func (n *Network) Listen(ip string, port int) (net.Listener, error) {
	l := &listener{network: n, addr: &net.TCPAddr{IP: net.ParseIP(ip), Port: port}}
	l.cond.L = &l.mu
	key, err := n.bind(ip, port, &binding{l: l})
	if err != nil {
		return nil, err
	}
	l.key = key
	return l, nil
}

// Handle binds h to ip:port: every netsim HTTP request to the address
// calls h in-process (see HTTPClient), and Dial to it is refused.
// Binding an address that is already bound, to a listener or a handler,
// is an error. release frees the address; calling it again is a no-op.
func (n *Network) Handle(ip string, port int, h http.Handler) (release func(), err error) {
	b := &binding{h: h}
	key, err := n.bind(ip, port, b)
	if err != nil {
		return nil, err
	}
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.addrs[key] == b { // a second release finds another binding, or none
			delete(n.addrs, key)
		}
	}, nil
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
	if r.l == nil {
		return nil, fmt.Errorf("%w: %s (bound to an HTTP handler)", errConnRefused, appendAddr(nil, r.ip, r.port))
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

// route is where a request to a host and port lands: what is bound at
// the address.
type route struct {
	l    *listener
	h    http.Handler
	ip   string
	port int
}

// route resolves host and finds what is bound to its address on port in
// one hold of n.mu, then checks ctx: the step Dial and the HTTP client
// share. The errors are Dial's:
// a bad port, an unknown host, an unbound address or ctx's.
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
		if b := n.addrs[string(appendAddr(key[:0], ip, p))]; b != nil {
			r = route{l: b.l, h: b.h, ip: ip, port: p}
		}
	}
	n.mu.Unlock()
	if err != nil {
		return route{}, err
	}
	if r.l == nil && r.h == nil {
		return route{}, fmt.Errorf("%w: %s", errConnRefused, appendAddr(nil, ip, p))
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
// address as Dial does, with Dial's errors, and calls the
// handler Handle bound there in-process (see http.go), under the
// request's ctx. Handlers see the client's simulated source IP as
// RemoteAddr, so server logs attribute every request to it. A request to
// a listener fails with an error.
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

	l.network.mu.Lock()
	delete(l.network.addrs, l.key)
	l.network.mu.Unlock()

	for _, c := range drained {
		c.Close()
	}
	return nil
}

// Addr returns the bound address.
func (l *listener) Addr() net.Addr { return l.addr }
