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
	// reaches it through serveHTTP's stock server. Both carry the source
	// IP.
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

// TestAcceptAfterClose: Close wakes a blocked Accept, which returns
// net.ErrClosed, and later dials are refused. It runs in a bubble: on
// synctest's clock Accept is surely blocked before Close, and an Accept
// that Close left blocked fails the test at once as a deadlock of the
// bubble.
func TestAcceptAfterClose(t *testing.T) {
	bubble(t, func() {
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
		settle()
		ln.Close()
		if err := <-done; !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Accept after close: %v, want net.ErrClosed", err)
		}
		// Dials to a closed listener are refused.
		if _, err := nw.Dial(context.Background(), "10.0.0.1", "192.0.2.6:80"); !errors.Is(err, errConnRefused) {
			t.Fatalf("dial to closed listener: %v", err)
		}
	})
}

func TestDialCancelledContext(t *testing.T) {
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
// either succeeds or fails with a refusal. It runs in a bubble, and
// every goroutine reports its end on a channel rather than a WaitGroup,
// which synctest does not count as durably blocked under Go 1.24: on
// synctest's clock a deadlock fails the test at once.
func TestManyConcurrentDialsAndListens(t *testing.T) {
	bubble(t, func() {
		nw := New()
		const listeners = 16
		const dialsPerTarget = 25

		servers := make(chan struct{}, listeners)
		lns := make([]net.Listener, listeners)
		for i := 0; i < listeners; i++ {
			ip := fmt.Sprintf("203.0.113.%d", 100+i)
			ln, err := nw.Listen(ip, 80)
			if err != nil {
				t.Fatal(err)
			}
			lns[i] = ln
			go func(ln net.Listener) {
				defer func() { servers <- struct{}{} }()
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

		clients := make(chan struct{}, listeners*dialsPerTarget)
		errs := make(chan error, listeners*dialsPerTarget)
		for i := 0; i < listeners; i++ {
			target := fmt.Sprintf("203.0.113.%d:80", 100+i)
			for j := 0; j < dialsPerTarget; j++ {
				go func(target string, j int) {
					defer func() { clients <- struct{}{} }()
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
		closed := make(chan struct{}, listeners/2)
		for i := 0; i < listeners; i += 2 {
			go func(ln net.Listener) {
				ln.Close()
				closed <- struct{}{}
			}(lns[i])
		}

		for i := 0; i < listeners*dialsPerTarget; i++ {
			<-clients
		}
		for i := 0; i < listeners/2; i++ {
			<-closed
		}
		for _, ln := range lns {
			ln.Close()
		}
		for i := 0; i < listeners; i++ {
			<-servers
		}
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
	})
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

// TestHandleBindsAddresses pins the address table's rules: an address
// holds one listener or one handler, whichever came first; Dial to a
// handler is refused and a netsim request to a listener fails; release
// frees the address for either kind, and a second release is a no-op
// that leaves the address's next binding in place.
func TestHandleBindsAddresses(t *testing.T) {
	nw := New()
	ctx := context.Background()
	client := nw.HTTPClient("198.51.100.7")
	answer := func(body string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body) })
	}
	if _, err := nw.Handle("bogus", 80, answer("x")); err == nil {
		t.Fatal("Handle on an invalid IP succeeded")
	}
	release, err := nw.Handle("192.0.2.30", 80, answer("first"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Handle("192.0.2.30", 80, answer("second")); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("a second Handle on a bound address = %v, want it in use", err)
	}
	if _, err := nw.Listen("192.0.2.30", 80); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("Listen on a handler's address = %v, want it in use", err)
	}
	if _, err := nw.Dial(ctx, "198.51.100.7", "192.0.2.30:80"); !errors.Is(err, errConnRefused) {
		t.Fatalf("Dial to a handler's address = %v, want refused", err)
	}
	if status, body, err := Get(ctx, client, "192.0.2.30", "/", nil); err != nil || status != http.StatusOK || body != "first" {
		t.Fatalf("Get of a bound handler = %d, %q, %v", status, body, err)
	}

	release()
	if _, _, err := Get(ctx, client, "192.0.2.30", "/", nil); !errors.Is(err, errConnRefused) {
		t.Fatalf("Get after release = %v, want refused", err)
	}
	ln, err := nw.Listen("192.0.2.30", 80)
	if err != nil {
		t.Fatalf("Listen on a released address: %v", err)
	}
	if _, err := nw.Handle("192.0.2.30", 80, answer("x")); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("Handle on a listener's address = %v, want it in use", err)
	}
	if _, _, err := Get(ctx, client, "192.0.2.30", "/", nil); err == nil || !strings.Contains(err.Error(), "no handler serves 192.0.2.30:80") {
		t.Fatalf("Get of a listener = %v, want no handler", err)
	}
	ln.Close()

	rebound, err := nw.Handle("192.0.2.30", 80, answer("rebound"))
	if err != nil {
		t.Fatalf("Handle on a released address: %v", err)
	}
	release() // a no-op: it must not free the rebinding
	if status, body, err := Get(ctx, client, "192.0.2.30", "/", nil); err != nil || status != http.StatusOK || body != "rebound" {
		t.Fatalf("Get after a second release of the first binding = %d, %q, %v; want the rebinding", status, body, err)
	}
	rebound()
	rebound()
	if _, err := nw.Listen("192.0.2.30", 80); err != nil {
		t.Fatalf("Listen after the rebinding's release: %v", err)
	}
}

// TestHandleRacesGets binds and releases handlers at a few addresses
// while clients Get through the table, under -race: every Get is
// served by the handler bound at its address or refused, never served
// by another address's handler.
func TestHandleRacesGets(t *testing.T) {
	nw := New()
	const addrs, rounds, clients = 4, 200, 4
	ip := func(i int) string { return fmt.Sprintf("192.0.2.%d", 50+i) }
	var wg sync.WaitGroup
	errs := make(chan error, addrs+clients)
	for i := 0; i < addrs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, ip(i)) })
			for r := 0; r < rounds; r++ {
				release, err := nw.Handle(ip(i), 80, h)
				if err != nil {
					errs <- err
					return
				}
				release()
			}
		}(i)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := nw.HTTPClient(fmt.Sprintf("198.51.100.%d", 10+c))
			for r := 0; r < rounds; r++ {
				want := ip((c + r) % addrs)
				status, body, err := Get(context.Background(), client, want, "/", nil)
				if (err != nil && !errors.Is(err, errConnRefused)) || (err == nil && (status != http.StatusOK || body != want)) {
					errs <- fmt.Errorf("Get of %s = %d, %q, %v", want, status, body, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
