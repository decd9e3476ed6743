// Package netsim provides an in-memory IP network that carries real
// net.Conn traffic between simulated hosts.
//
// The paper's §5 experiments identify crawlers by the source IP addresses
// observed in web server logs (some companies publish crawl ranges, some do
// not). Loopback TCP cannot reproduce that: every connection arrives from
// 127.0.0.1. netsim instead implements net.Listener and a dialer on top of
// buffered duplex pipe pairs (see pipe.go) whose LocalAddr/RemoteAddr carry
// the simulated addresses, so an unmodified net/http server and client
// exchange real HTTP while logs show the crawler's simulated source IP.
// Unlike net.Pipe, reads and writes do not rendezvous per byte: each
// direction buffers up to a TCP-window's worth of data, and deadlines are
// honored.
//
// A Network also contains a miniature name service (Register/Resolve) so
// HTTP clients can use ordinary host-based URLs.
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

// ErrConnRefused is returned by Dial when no listener is bound to the
// target address.
var ErrConnRefused = errors.New("netsim: connection refused")

// ErrNameNotFound is returned when a hostname has no registered address.
var ErrNameNotFound = errors.New("netsim: no such host")

// Network is an in-memory IP network. The zero value is not usable; create
// one with New. All methods are safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener // key "ip:port"
	names     map[string]string    // lowercase hostname -> ip
	ephemeral atomic.Uint32
	latency   time.Duration
}

// New returns an empty network.
func New() *Network {
	return &Network{
		listeners: make(map[string]*listener),
		names:     make(map[string]string),
	}
}

// SetLatency sets a fixed one-way connection setup delay applied on every
// successful dial. Zero (the default) disables the delay.
func (n *Network) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = d
}

// Register binds hostname to ip in the network's name service, replacing
// any previous binding. Hostnames are case-insensitive.
func (n *Network) Register(hostname, ip string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.names[strings.ToLower(hostname)] = ip
}

// Resolve returns the IP bound to hostname. If hostname already parses as
// an IP it is returned verbatim.
func (n *Network) Resolve(hostname string) (string, error) {
	if net.ParseIP(hostname) != nil {
		return hostname, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if ip, ok := n.names[strings.ToLower(hostname)]; ok {
		return ip, nil
	}
	return "", fmt.Errorf("%w: %s", ErrNameNotFound, hostname)
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
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad port %q: %w", portStr, err)
	}
	ip, err := n.Resolve(host)
	if err != nil {
		return nil, err
	}
	key := net.JoinHostPort(ip, strconv.Itoa(port))

	n.mu.Lock()
	l, ok := n.listeners[key]
	latency := n.latency
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, key)
	}
	if latency > 0 {
		timer := time.NewTimer(latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	srcPort := 32768 + int(n.ephemeral.Add(1)%28000)
	clientAddr := &net.TCPAddr{IP: net.ParseIP(sourceIP), Port: srcPort}
	serverAddr := &net.TCPAddr{IP: net.ParseIP(ip), Port: port}
	cc, sc := newConnPair(clientAddr, serverAddr)
	if reason := l.enqueue(sc); reason != "" {
		cc.Close()
		sc.Close()
		return nil, fmt.Errorf("%w: %s (%s)", ErrConnRefused, key, reason)
	}
	return cc, nil
}

// Dialer returns a DialContext function suitable for http.Transport that
// originates connections from sourceIP.
func (n *Network) Dialer(sourceIP string) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		return n.Dial(ctx, sourceIP, addr)
	}
}

// HTTPClient returns an http.Client whose connections originate from
// sourceIP and traverse this network. Each call returns an independent
// client with its own transport, so connection pooling is naturally keyed
// by (sourceIP, target): sequential requests to the same host reuse one
// kept-alive connection, and server logs still attribute every request to
// the client's simulated source IP via CLF.
//
// The client rides the netsim-native fast path (see fasthttp.go): a
// hand-rolled HTTP/1.1 writer/reader over the buffered duplex conns that
// skips stdlib net/http's per-request machinery while keeping the exact
// wire format and keep-alive pooling semantics. Requests outside the fast
// path's closed world fall back to a stdlib transport transparently.
//
// The client carries no overall request timeout: wrapping every request
// in a deadline context costs several allocations and a timer on the hot
// path, and the simulated network cannot stall silently (a closed peer
// always surfaces as EOF or ErrConnReset). Callers that want a bound
// pass a cancellable or deadline context per request — every experiment
// driver in this repo already does — or set Timeout on the returned
// client.
func (n *Network) HTTPClient(sourceIP string) *http.Client {
	return &http.Client{Transport: newFastTransport(n, sourceIP)}
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
// ErrConnRefused; connections already queued in the backlog are closed,
// so their dialers see ErrConnReset on first read or write.
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
