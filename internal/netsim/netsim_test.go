package netsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHTTPOverNetworkPreservesSourceIP(t *testing.T) {
	nw := New()
	nw.Register("example.test", "203.0.113.10")

	var seenRemote string
	var mu sync.Mutex
	serveHTTP(t, nw, "203.0.113.10", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		host, _, _ := net.SplitHostPort(r.RemoteAddr)
		seenRemote = host
		mu.Unlock()
		fmt.Fprint(w, "hello from example.test")
	}))

	// The netsim client calls the handler in-process; a stock client
	// reaches ServeHTTP's wire server. Both carry the source IP.
	for name, client := range map[string]*http.Client{
		"netsim": nw.HTTPClient("198.51.100.77"),
		"stock":  stdlibClient(nw, "198.51.100.77", false),
	} {
		seenRemote = ""
		resp, err := client.Get("http://example.test/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "hello from example.test" {
			t.Fatalf("%s: body = %q", name, body)
		}
		mu.Lock()
		if seenRemote != "198.51.100.77" {
			t.Fatalf("%s: server saw remote %q, want the simulated crawler IP", name, seenRemote)
		}
		mu.Unlock()
	}
}

func TestDialUnknownHost(t *testing.T) {
	nw := New()
	_, err := nw.Dial(context.Background(), "10.0.0.1", "nowhere.test:80")
	if !errors.Is(err, errNameNotFound) {
		t.Fatalf("err = %v, want ErrNameNotFound", err)
	}
}

func TestDialRefused(t *testing.T) {
	nw := New()
	_, err := nw.Dial(context.Background(), "10.0.0.1", "192.0.2.1:80")
	if !errors.Is(err, errConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestListenConflict(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.5", 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("192.0.2.5", 80); err == nil {
		t.Fatal("second bind to same address must fail")
	}
	ln.Close()
	// After close the address is free again.
	ln2, err := nw.Listen("192.0.2.5", 80)
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	ln2.Close()
}

func TestListenInvalidIP(t *testing.T) {
	nw := New()
	if _, err := nw.Listen("not-an-ip", 80); err == nil {
		t.Fatal("invalid IP must fail")
	}
}

func TestDialBadAddress(t *testing.T) {
	nw := New()
	if _, err := nw.Dial(context.Background(), "10.0.0.1", "missing-port"); err == nil {
		t.Fatal("address without port must fail")
	}
	if _, err := nw.Dial(context.Background(), "10.0.0.1", "192.0.2.1:notaport"); err == nil {
		t.Fatal("non-numeric port must fail")
	}
}

func TestAcceptAfterClose(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.6", 80)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	ln.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Accept after close: %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not return after Close")
	}
	// Dials to a closed listener are refused.
	if _, err := nw.Dial(context.Background(), "10.0.0.1", "192.0.2.6:80"); !errors.Is(err, errConnRefused) {
		t.Fatalf("dial to closed listener: %v", err)
	}
}

func TestDialContextCancel(t *testing.T) {
	nw := New()
	nw.latency = 5 * time.Second
	ln, err := nw.Listen("192.0.2.7", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = nw.Dial(ctx, "10.0.0.1", "192.0.2.7:80")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not interrupt the latency delay")
	}
}

func TestDialCancelledContextNoLatency(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.12", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.Dial(ctx, "10.0.0.1", "192.0.2.12:80"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestLatencyApplied(t *testing.T) {
	nw := New()
	nw.latency = 30 * time.Millisecond
	ln, err := nw.Listen("192.0.2.8", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	start := time.Now()
	c, err := nw.Dial(context.Background(), "10.0.0.1", "192.0.2.8:80")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("dial returned in %v, want >= 30ms latency", elapsed)
	}
}

func TestConcurrentClients(t *testing.T) {
	nw := New()
	nw.Register("busy.test", "203.0.113.20")
	serveHTTP(t, nw, "203.0.113.20", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, _ := net.SplitHostPort(r.RemoteAddr)
		fmt.Fprint(w, host)
	}))

	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ip := fmt.Sprintf("198.51.100.%d", i+1)
			client := nw.HTTPClient(ip)
			resp, err := client.Get("http://busy.test/")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != ip {
				errs <- fmt.Errorf("client %s echoed %q", ip, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestManyConcurrentDialsAndListens hammers one network with listeners
// binding, accepting, and closing while many clients dial — the access
// pattern the scenario engine's parallel site simulations produce. Run
// with -race; the assertions are that nothing deadlocks and every dial
// either succeeds or fails with a refusal.
func TestManyConcurrentDialsAndListens(t *testing.T) {
	nw := New()
	const listeners = 16
	const dialsPerTarget = 25

	var servers sync.WaitGroup
	lns := make([]net.Listener, listeners)
	for i := 0; i < listeners; i++ {
		ip := fmt.Sprintf("203.0.113.%d", 100+i)
		ln, err := nw.Listen(ip, 80)
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		servers.Add(1)
		go func(ln net.Listener) {
			defer servers.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					io.Copy(io.Discard, c)
					c.Close()
				}(c)
			}
		}(ln)
	}

	var clients sync.WaitGroup
	errs := make(chan error, listeners*dialsPerTarget)
	for i := 0; i < listeners; i++ {
		target := fmt.Sprintf("203.0.113.%d:80", 100+i)
		for j := 0; j < dialsPerTarget; j++ {
			clients.Add(1)
			go func(target string, j int) {
				defer clients.Done()
				src := fmt.Sprintf("198.51.100.%d", 1+j%200)
				c, err := nw.Dial(context.Background(), src, target)
				if err != nil {
					// Refusals are expected once listeners start closing.
					if !errors.Is(err, errConnRefused) {
						errs <- err
					}
					return
				}
				// A dial can land in a backlog that its listener closes
				// before accepting; Close drains the backlog and closes
				// those conns, so the write either succeeds (buffered or
				// read by the server) or fails fast with a reset — no
				// deadline needed to avoid blocking forever.
				if _, werr := fmt.Fprint(c, "ping"); werr != nil && !errors.Is(werr, errConnReset) {
					errs <- fmt.Errorf("write after refused accept: %w", werr)
				}
				c.Close()
			}(target, j)
		}
	}
	// Close half the listeners while dials are in flight.
	for i := 0; i < listeners; i += 2 {
		go lns[i].Close()
	}

	done := make(chan struct{})
	go func() { clients.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent dials deadlocked")
	}
	for _, ln := range lns {
		ln.Close()
	}
	servers.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("dial: %v", err)
	}
	// The network is still serviceable afterwards.
	ln, err := nw.Listen("203.0.113.99", 80)
	if err != nil {
		t.Fatalf("post-stress listen: %v", err)
	}
	ln.Close()
}

func TestResolveLiteralIP(t *testing.T) {
	nw := New()
	ip, err := resolve(nw, "192.0.2.99")
	if err != nil || ip != "192.0.2.99" {
		t.Fatalf("Resolve literal = %q, %v", ip, err)
	}
}

// resolve is nw.resolve under the lock it needs.
func resolve(nw *Network, host string) (string, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.resolve(host)
}

func TestRegisterCaseInsensitive(t *testing.T) {
	nw := New()
	nw.Register("Example.TEST", "192.0.2.50")
	ip, err := resolve(nw, "example.test")
	if err != nil || ip != "192.0.2.50" {
		t.Fatalf("Resolve = %q, %v", ip, err)
	}
}

func TestListenerAddr(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.9", 8080)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := ln.Addr().String(); got != "192.0.2.9:8080" {
		t.Fatalf("Addr = %q", got)
	}
}

func TestDoubleCloseListener(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.11", 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal("second Close must be a no-op, not panic or error")
	}
}

// TestAliasDialReachesSharedListener pins the virtual-IP aliasing
// contract the webserver farm relies on: a dial to an alias address is
// accepted by the target listener, and the accepted connection's local
// address is the alias — the advertised per-site IP — not the listener's
// primary address.
func TestAliasDialReachesSharedListener(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.20", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := nw.AddAlias("192.0.2.21", 80, ln); err != nil {
		t.Fatal(err)
	}

	type accepted struct {
		conn net.Conn
		err  error
	}
	got := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		got <- accepted{c, err}
	}()
	cc, err := nw.Dial(context.Background(), "198.51.100.7", "192.0.2.21:80")
	if err != nil {
		t.Fatalf("dial alias: %v", err)
	}
	defer cc.Close()
	acc := <-got
	if acc.err != nil {
		t.Fatalf("accept: %v", acc.err)
	}
	defer acc.conn.Close()
	if la := acc.conn.LocalAddr().String(); la != "192.0.2.21:80" {
		t.Fatalf("server local addr = %s, want the alias 192.0.2.21:80", la)
	}
	if ra := acc.conn.RemoteAddr().String(); !strings.HasPrefix(ra, "198.51.100.7:") {
		t.Fatalf("server remote addr = %s, want source 198.51.100.7", ra)
	}
}

// TestAliasLifecycle covers conflicts, removal, and listener close
// releasing every alias.
func TestAliasLifecycle(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.30", 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.AddAlias("bogus", 80, ln); err == nil {
		t.Fatal("invalid alias IP must fail")
	}
	if err := nw.AddAlias("192.0.2.30", 80, ln); err == nil {
		t.Fatal("aliasing the primary address must fail (in use)")
	}
	if err := nw.AddAlias("192.0.2.31", 80, ln); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddAlias("192.0.2.31", 80, ln); err == nil {
		t.Fatal("duplicate alias must fail")
	}
	other := New()
	if err := other.AddAlias("192.0.2.32", 80, ln); err == nil {
		t.Fatal("aliasing a foreign network's listener must fail")
	}

	// Removing the primary address via RemoveAlias is a no-op.
	nw.RemoveAlias("192.0.2.30", 80)
	if _, err := nw.Dial(context.Background(), "198.51.100.7", "192.0.2.30:80"); err != nil {
		t.Fatalf("primary address must survive RemoveAlias: %v", err)
	}
	nw.RemoveAlias("192.0.2.31", 80)
	if _, err := nw.Dial(context.Background(), "198.51.100.7", "192.0.2.31:80"); !errors.Is(err, errConnRefused) {
		t.Fatalf("dial removed alias = %v, want refused", err)
	}

	if err := nw.AddAlias("192.0.2.33", 80, ln); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := nw.Dial(context.Background(), "198.51.100.7", "192.0.2.33:80"); !errors.Is(err, errConnRefused) {
		t.Fatalf("dial alias after listener close = %v, want refused", err)
	}
	// The alias slots are free again.
	if _, err := nw.Listen("192.0.2.33", 80); err != nil {
		t.Fatalf("rebinding released alias: %v", err)
	}
	// Aliasing a closed listener is refused; the address stays free.
	if err := nw.AddAlias("192.0.2.34", 80, ln); err == nil {
		t.Fatal("aliasing a closed listener must fail")
	}
	if ln2, err := nw.Listen("192.0.2.34", 80); err != nil {
		t.Fatalf("address leaked by rejected alias: %v", err)
	} else {
		ln2.Close()
	}
}
