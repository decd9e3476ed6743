package netsim

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// rawServe accepts connections on ln and hands each to fn in its own
// goroutine — a hand-written peer for exercising exact wire behaviour
// the fast client must survive.
func rawServe(ln net.Listener, fn func(net.Conn)) {
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go fn(c)
		}
	}()
}

// readRequestHead consumes one request head (through the blank line) so
// a raw peer can answer it.
func readRequestHead(c net.Conn) error {
	buf := make([]byte, 4096)
	total := 0
	for {
		n, err := c.Read(buf[total:])
		total += n
		if bytes.Contains(buf[:total], []byte("\r\n\r\n")) {
			return nil
		}
		if err != nil {
			return err
		}
		if total == len(buf) {
			return errors.New("head too large")
		}
	}
}

// TestFastClientDeadlineMidRead pins deadline behaviour when the peer
// stalls after the response head: the body read must fail with a
// deadline error instead of hanging — through client.Do with the
// client's Timeout, and through Get with a ctx deadline.
func TestFastClientDeadlineMidRead(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.60", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("stall.test", "203.0.113.60")
	rawServe(ln, func(c net.Conn) {
		defer c.Close()
		if err := readRequestHead(c); err != nil {
			return
		}
		// Promise 100 bytes, deliver 5, then stall until the client
		// gives up and hangs up.
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello")
		io.Copy(io.Discard, c)
	})
	isDeadline := func(err error) bool {
		var nerr net.Error
		timeout := errors.As(err, &nerr) && nerr.Timeout()
		return timeout || errors.Is(err, os.ErrDeadlineExceeded) || strings.Contains(err.Error(), "deadline")
	}

	t.Run("Do", func(t *testing.T) {
		client := nw.HTTPClient("198.51.100.60")
		client.Timeout = 50 * time.Millisecond
		start := time.Now()
		resp, err := client.Get("http://stall.test/")
		if err != nil {
			t.Fatalf("head should have arrived before the stall: %v", err)
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatal("body read succeeded though the peer stalled")
		}
		if !isDeadline(err) {
			t.Fatalf("want deadline/timeout error, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("deadline took %v to fire", elapsed)
		}
	})
	t.Run("Get", func(t *testing.T) {
		client := nw.HTTPClient("198.51.100.60")
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		status, body, err := Get(ctx, client, "http://stall.test/", nil)
		if err == nil {
			t.Fatalf("Get succeeded though the peer stalled: %d, %q", status, body)
		}
		if status != http.StatusOK || body != "" || !isDeadline(err) {
			t.Fatalf("Get = %d, %q, %v; want the status, no body and a deadline error", status, body, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("deadline took %v to fire", elapsed)
		}
	})
}

// TestFastClientPeerCloseMidResponse pins the truncated-response case:
// the peer closes after sending part of a fixed-length body, and the
// client must surface an error once the buffered bytes drain — not EOF
// masquerading as success, and not a hang.
func TestFastClientPeerCloseMidResponse(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.61", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("trunc.test", "203.0.113.61")
	rawServe(ln, func(c net.Conn) {
		if err := readRequestHead(c); err != nil {
			c.Close()
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly this much")
		c.Close() // netsim delivers buffered bytes, then EOF
	})

	client := nw.HTTPClient("198.51.100.61")
	resp, err := client.Get("http://trunc.test/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("truncated body read succeeded with %d of 100 bytes", len(body))
	}
	if string(body) != "only this much" {
		t.Fatalf("buffered bytes not drained before the error: %q", body)
	}
}

// TestGetTruncatedBody pins Get's half of the truncated-response case:
// a 200 whose body stops short of its Content-Length is an error, not a
// short page.
func TestGetTruncatedBody(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.65", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("trunc.test", "203.0.113.65")
	rawServe(ln, func(c net.Conn) {
		defer c.Close()
		if err := readRequestHead(c); err != nil {
			return
		}
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789")
	})

	client := nw.HTTPClient("198.51.100.65")
	status, body, err := Get(context.Background(), client, "http://trunc.test/", nil)
	if err == nil {
		t.Fatalf("Get read a 10-of-100-byte body as whole: status %d, body %q", status, body)
	}
	if status != http.StatusOK || body != "" {
		t.Fatalf("Get = %d, %q, %v; want the status, no body and the error", status, body, err)
	}
}

// TestGetCapsBody: Get reads the first 1 MiB of a longer body as the
// whole page, without an error, and a short remainder past the cap is
// drained so the conn goes back to the pool.
func TestGetCapsBody(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.71", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("big.test", "203.0.113.71")
	page := bytes.Repeat([]byte("0123456789abcdef"), (maxBodyBytes+64)/16)
	rawServe(ln, func(c net.Conn) {
		defer c.Close()
		for readRequestHead(c) == nil {
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(page))
			c.Write(page)
		}
	})

	client := nw.HTTPClient("198.51.100.71")
	defer client.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		hits := mHTTPPoolHits.Value()
		status, body, err := Get(context.Background(), client, "http://big.test/", nil)
		if err != nil || status != http.StatusOK || body != string(page[:maxBodyBytes]) {
			t.Fatalf("Get %d = %d, %d bytes, %v; want 200 and the first %d bytes", i, status, len(body), err, maxBodyBytes)
		}
		if got := mHTTPPoolHits.Value() - hits; i > 0 && got != 1 {
			t.Fatalf("Get %d: %d pool hits, want the drained conn reused", i, got)
		}
	}
}

// TestFastClientPostBodyAcrossRing sends a POST body several times the
// 32KiB netsim ring and checks the bytes arrive intact: the client must
// interleave body writes with the server's reads instead of deadlocking
// on a full ring.
func TestFastClientPostBodyAcrossRing(t *testing.T) {
	const bodySize = 100 << 10 // ~3 rings
	payload := bytes.Repeat([]byte("0123456789abcdef"), bodySize/16)

	nw := New()
	ln, err := nw.Listen("203.0.113.62", 80)
	if err != nil {
		t.Fatal(err)
	}
	nw.Register("post.test", "203.0.113.62")
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !bytes.Equal(got, payload) {
			http.Error(w, fmt.Sprintf("body corrupted: %d bytes", len(got)), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%d", len(got))
	})}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	client := nw.HTTPClient("198.51.100.62")
	client.Timeout = 10 * time.Second
	for i := 0; i < 3; i++ { // repeat to also cover pooled-conn reuse
		resp, err := client.Post("http://post.test/upload", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK || string(reply) != fmt.Sprintf("%d", bodySize) {
			t.Fatalf("round %d: status %d, reply %q", i, resp.StatusCode, reply)
		}
	}
}

// TestFastClientRetriesDeadPooledConn pins the retry-once contract: a
// pooled keep-alive connection whose peer hung up must be replaced
// transparently on the next request, through client.Do and through Get.
func TestFastClientRetriesDeadPooledConn(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.63", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("flaky.test", "203.0.113.63")
	rawServe(ln, func(c net.Conn) {
		// Answer exactly one request per connection, then hang up without
		// announcing Connection: close — the client's pooled conn dies.
		defer c.Close()
		if err := readRequestHead(c); err != nil {
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	})

	for _, via := range []string{"Do", "Get"} {
		t.Run(via, func(t *testing.T) {
			client := nw.HTTPClient("198.51.100.63")
			retries := mHTTPRetries.Value()
			for i := 0; i < 3; i++ {
				var body string
				if via == "Do" {
					resp, err := client.Get("http://flaky.test/")
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					b, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatalf("request %d: body %q, err %v", i, b, err)
					}
					body = string(b)
				} else {
					status, b, err := Get(context.Background(), client, "http://flaky.test/", nil)
					if err != nil || status != http.StatusOK {
						t.Fatalf("request %d: status %d, err %v", i, status, err)
					}
					body = b
				}
				if body != "ok" {
					t.Fatalf("request %d: body %q", i, body)
				}
			}
			if got := mHTTPRetries.Value() - retries; got < 2 {
				t.Errorf("three requests on conns that each die after one answer: %d retries, want 2", got)
			}
		})
	}
}

// TestFastClientContextCancelMidRequest checks per-request contexts
// translate to deadlines on the simulated conn.
func TestFastClientContextCancelMidRequest(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.64", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("slow.test", "203.0.113.64")
	rawServe(ln, func(c net.Conn) {
		// Never answer; hold the conn until the client gives up on it.
		defer c.Close()
		io.Copy(io.Discard, c)
	})

	client := nw.HTTPClient("198.51.100.64")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://slow.test/", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("request succeeded though the server never answered")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context deadline took %v to fire", elapsed)
	}
}

// TestGetCallsServedHandlerInProcess: Get to a listener ServeHTTP
// serves calls the handler with no conn — nothing is dialed — and hands
// it the request ServeConn would parse, from the client's source IP. It
// returns what the handler wrote: a 3xx as is, no body for a 204, and
// the first 1 MiB of a longer body, while the handler's writes report
// every byte. An unknown host and a canceled ctx fail as a dial does,
// and the network's latency delays the call as it does a dial.
func TestGetCallsServedHandlerInProcess(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.84", 80)
	if err != nil {
		t.Fatal(err)
	}
	nw.Register("direct.test", "203.0.113.84")
	big := strings.Repeat("0123456789abcdef", (maxBodyBytes+64)/16)
	var seen string
	var wrote int
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ip, _, _ := net.SplitHostPort(r.RemoteAddr)
		seen = fmt.Sprintf("%s %s %s %q %s", r.Method, r.Host, r.RequestURI, r.UserAgent(), ip)
		switch r.URL.Path {
		case "/moved":
			w.Header().Set("Location", "/")
			w.WriteHeader(http.StatusFound)
			io.WriteString(w, "moved")
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
			io.WriteString(w, "dropped")
		case "/big":
			wrote, _ = io.WriteString(w, big)
		default:
			io.WriteString(w, "ok")
		}
	})
	wait := ServeHTTP(ln, h)
	defer func() {
		ln.Close()
		wait()
	}()
	client := nw.HTTPClient("198.51.100.84")
	ctx := context.Background()
	misses := mHTTPPoolMisses.Value()
	for _, c := range []struct {
		url, ua string
		status  int
		body    string
		seen    string
	}{
		{"http://direct.test/?q=1", "probe/1.0", 200, "ok", `GET direct.test /?q=1 "probe/1.0" 198.51.100.84`},
		{"http://direct.test:80/a%20b", "", 200, "ok", `GET direct.test:80 /a%20b "Go-http-client/1.1" 198.51.100.84`},
		{"http://203.0.113.84/moved", "probe/1.0", http.StatusFound, "moved", `GET 203.0.113.84 /moved "probe/1.0" 198.51.100.84`},
		{"http://direct.test/empty", "probe/1.0", http.StatusNoContent, "", `GET direct.test /empty "probe/1.0" 198.51.100.84`},
		{"http://direct.test/big", "probe/1.0", 200, big[:maxBodyBytes], `GET direct.test /big "probe/1.0" 198.51.100.84`},
	} {
		var hdr http.Header
		if c.ua != "" {
			hdr = http.Header{"User-Agent": {c.ua}}
		}
		status, body, err := Get(ctx, client, c.url, hdr)
		if err != nil || status != c.status || body != c.body {
			t.Fatalf("Get(%s) = %d, %d bytes, %v; want %d, %d bytes", c.url, status, len(body), err, c.status, len(c.body))
		}
		if seen != c.seen {
			t.Fatalf("Get(%s): handler saw %s, want %s", c.url, seen, c.seen)
		}
	}
	if wrote != len(big) {
		t.Fatalf("handler's write of %d bytes reported %d", len(big), wrote)
	}
	if got := mHTTPPoolMisses.Value() - misses; got != 0 {
		t.Fatalf("Get dialed %d conns to a ServeHTTP listener, want none", got)
	}
	if _, _, err := Get(ctx, client, "http://nowhere.test/", nil); !errors.Is(err, errNameNotFound) {
		t.Fatalf("Get of an unknown host = %v, want %v", err, errNameNotFound)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := Get(canceled, client, "http://direct.test/", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get under a canceled ctx = %v, want %v", err, context.Canceled)
	}
	nw.latency = 20 * time.Millisecond
	start := time.Now()
	if _, _, err := Get(ctx, client, "http://direct.test/", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < nw.latency {
		t.Fatalf("Get returned in %v, want at least the network's %v latency", elapsed, nw.latency)
	}
}

// TestGetReturnsRedirectAsIs: Get follows no redirect; a 302 comes back
// with its own status and body, and nothing fetches the Location.
func TestGetReturnsRedirectAsIs(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.69", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("moved.test", "203.0.113.69")
	var requests atomic.Int64
	rawServe(ln, func(c net.Conn) {
		defer c.Close()
		for readRequestHead(c) == nil {
			requests.Add(1)
			io.WriteString(c, "HTTP/1.1 302 Found\r\nLocation: http://moved.test/elsewhere\r\nContent-Length: 5\r\n\r\nmoved")
		}
	})

	client := nw.HTTPClient("198.51.100.69")
	defer client.CloseIdleConnections()
	status, body, err := Get(context.Background(), client, "http://moved.test/", nil)
	if err != nil || status != http.StatusFound || body != "moved" {
		t.Fatalf("Get = %d, %q, %v; want the 302 and its body", status, body, err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("server answered %d requests, want 1: the redirect was followed", n)
	}
}

// TestGetRefusesClient: Get fails, before dialing, for a client whose
// settings it could not honour — a transport that is not netsim's, a
// Timeout, a cookie Jar or a CheckRedirect.
func TestGetRefusesClient(t *testing.T) {
	const serverIP = "203.0.113.70"
	nw := New()
	ln, err := nw.Listen(serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("refuse.test", serverIP)

	withTimeout := nw.HTTPClient("198.51.100.70")
	withTimeout.Timeout = time.Second
	withRedirect := nw.HTTPClient("198.51.100.70")
	withRedirect.CheckRedirect = func(*http.Request, []*http.Request) error { return nil }
	withJar := nw.HTTPClient("198.51.100.70")
	withJar.Jar = nopJar{}
	for name, client := range map[string]*http.Client{
		"foreign transport": stdlibClient(nw, "198.51.100.70", true),
		"Timeout":           withTimeout,
		"CheckRedirect":     withRedirect,
		"Jar":               withJar,
	} {
		status, body, err := Get(context.Background(), client, "http://refuse.test/", nil)
		if err == nil {
			t.Errorf("%s: Get = %d, %q; want an error", name, status, body)
		}
	}

	// A sentinel dial must be the first connection the listener has.
	const sentinelIP = "198.51.100.251"
	sc, err := nw.Dial(context.Background(), sentinelIP, serverIP+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ip, _, _ := net.SplitHostPort(c.RemoteAddr().String()); ip != sentinelIP {
		t.Fatalf("listener accepted a connection from %s before the sentinel: a refused Get dialed", ip)
	}
}

// nopJar is a cookie jar that keeps nothing.
type nopJar struct{}

func (nopJar) SetCookies(*url.URL, []*http.Cookie) {}
func (nopJar) Cookies(*url.URL) []*http.Cookie     { return nil }

// serveHosts serves "ok" for every Host on one listener at ip and
// returns a counter of the connections the server accepted.
func serveHosts(t *testing.T, nw *Network, ip string, hosts int) *atomic.Int64 {
	t.Helper()
	ln, err := nw.Listen(ip, 80)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		nw.Register(fmt.Sprintf("h%02d.test", i), ip)
	}
	accepted := new(atomic.Int64)
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") }),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				accepted.Add(1)
			}
		},
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return accepted
}

func mustGet(t *testing.T, client *http.Client, url string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("GET %s: body %q, err %v", url, body, err)
	}
}

// TestFastPoolEvictsOldestAtTotalCap: a client that has touched more
// hosts than the pool holds keeps pooling — the total cap makes room by
// evicting the least recently used idle conn, as http.Transport does,
// instead of closing the conn just used.
func TestFastPoolEvictsOldestAtTotalCap(t *testing.T) {
	const hosts = fastMaxIdleTotal + 6
	nw := New()
	accepted := serveHosts(t, nw, "203.0.113.65", hosts)
	client := nw.HTTPClient("198.51.100.65")
	tr := client.Transport.(*fastTransport)
	idle := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return len(tr.idle)
	}

	for i := 0; i < hosts; i++ {
		mustGet(t, client, fmt.Sprintf("http://h%02d.test/", i))
		if n := idle(); n > fastMaxIdleTotal {
			t.Fatalf("after %d hosts: %d idle conns, cap %d", i+1, n, fastMaxIdleTotal)
		}
	}
	if n := idle(); n != fastMaxIdleTotal {
		t.Fatalf("%d idle conns after %d hosts, want a full pool of %d", n, hosts, fastMaxIdleTotal)
	}
	hits, dials := mHTTPPoolHits.Value(), accepted.Load()
	last := fmt.Sprintf("http://h%02d.test/", hosts-1)
	mustGet(t, client, last)
	mustGet(t, client, last)
	if got := mHTTPPoolHits.Value() - hits; got != 2 {
		t.Errorf("two more requests to the last host: %d pool hits, want 2", got)
	}
	if got := accepted.Load() - dials; got != 0 {
		t.Errorf("two more requests to the last host dialed %d times", got)
	}
	// The evicted conns were the oldest: the first hosts redial, the
	// newest are still pooled.
	hits = mHTTPPoolHits.Value()
	mustGet(t, client, "http://h00.test/")
	if got := mHTTPPoolHits.Value() - hits; got != 0 {
		t.Errorf("oldest host's conn survived eviction (%d pool hits)", got)
	}
}

// stdlibClient is the net/http reference the fast client is checked
// against: a stock transport dialing through the same network from the
// same source IP. Compression is off because the fast client never asks
// for it.
func stdlibClient(nw *Network, sourceIP string, keepAlive bool) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, addr string) (net.Conn, error) {
			return nw.Dial(ctx, sourceIP, addr)
		},
		DisableKeepAlives:  !keepAlive,
		DisableCompression: true,
	}}
}

// TestCloseIdleConnections: http.Client.CloseIdleConnections empties
// the pool, and the next request redials and succeeds — on the fast
// transport exactly as on a stdlib one (legacy=true).
func TestCloseIdleConnections(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			nw := New()
			accepted := serveHosts(t, nw, "203.0.113.66", 1)
			client := nw.HTTPClient("198.51.100.66")
			if legacy {
				client = stdlibClient(nw, "198.51.100.66", true)
			}

			mustGet(t, client, "http://h00.test/")
			mustGet(t, client, "http://h00.test/")
			if n := accepted.Load(); n != 1 {
				t.Fatalf("two sequential requests used %d conns, want 1 kept alive", n)
			}
			client.CloseIdleConnections()
			if !legacy {
				tr := client.Transport.(*fastTransport)
				tr.mu.Lock()
				n := len(tr.idle)
				tr.mu.Unlock()
				if n != 0 {
					t.Fatalf("%d conns pooled after CloseIdleConnections", n)
				}
			}
			retries := mHTTPRetries.Value()
			mustGet(t, client, "http://h00.test/")
			if n := accepted.Load(); n != 2 {
				t.Fatalf("request after CloseIdleConnections: %d conns accepted in all, want 2", n)
			}
			if got := mHTTPRetries.Value() - retries; got != 0 {
				t.Errorf("redial after CloseIdleConnections went through %d dead-conn retries", got)
			}
		})
	}
}

// TestHTTPClientRejectsUnsupported: a request outside the subset the
// client speaks fails with an error naming what it asked for, and
// nothing is dialed for it — there is no second transport to hand it to.
func TestHTTPClientRejectsUnsupported(t *testing.T) {
	const serverIP = "203.0.113.68"
	nw := New()
	ln, err := nw.Listen(serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("reject.test", serverIP)
	client := nw.HTTPClient("198.51.100.68")

	pr, pw := io.Pipe()
	defer pw.Close()
	cases := []struct {
		name, method, url string
		body              io.Reader
		trailer           http.Header
		want              string // the error must contain it
	}{
		{name: "PUT", method: http.MethodPut, url: "http://reject.test/", body: strings.NewReader("x"), want: `method "PUT"`},
		{name: "https", method: http.MethodGet, url: "https://reject.test/", want: `scheme "https"`},
		{name: "unknown length", method: http.MethodPost, url: "http://reject.test/", body: pr, want: "unknown length"},
		{name: "trailer", method: http.MethodGet, url: "http://reject.test/", trailer: http.Header{"X-Sum": nil}, want: "trailers"},
		// ServeConn refuses a body over srvMaxBody, so the client does too.
		{name: "oversized body", method: http.MethodPost, url: "http://reject.test/", body: bytes.NewReader(make([]byte, srvMaxBody+1)), want: "8388608-byte limit"},
	}
	for _, tc := range cases {
		// The deadline only bounds a transport that dials anyway.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, tc.method, tc.url, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req.Trailer = tc.trailer
		resp, err := client.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			t.Errorf("%s: request succeeded, want an error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}

	// A sentinel dial must be the first connection the listener has.
	const sentinelIP = "198.51.100.250"
	sc, err := nw.Dial(context.Background(), sentinelIP, serverIP+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ip, _, _ := net.SplitHostPort(c.RemoteAddr().String()); ip != sentinelIP {
		t.Fatalf("listener accepted a connection from %s before the sentinel: a rejected request dialed", ip)
	}
}

// TestHTTPClientRefusesNonContentLengthBodies: Content-Length is the one
// response body framing the client reads. A response framed any other
// way — chunked, read to the close, or chunked with a Content-Length
// too — fails through client.Do and through Get with an error naming
// the framing and no body, and its conn is closed, not pooled: the next
// request dials.
func TestHTTPClientRefusesNonContentLengthBodies(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.72", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nw.Register("framing.test", "203.0.113.72")
	responses := map[string]string{
		"/chunked": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"/eof":     "HTTP/1.1 200 OK\r\n\r\nhello",
		"/both":    "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"/ok":      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
	}
	var accepted atomic.Int64
	rawServe(ln, func(c net.Conn) {
		defer c.Close()
		accepted.Add(1)
		br := bufio.NewReader(c)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.WriteString(c, responses[req.URL.Path])
			if req.URL.Path == "/eof" {
				return // the close ends the body
			}
		}
	})

	for _, tc := range []struct{ path, want string }{
		{"/chunked", "Transfer-Encoding"},
		{"/eof", "no Content-Length"},
		{"/both", "Transfer-Encoding"},
	} {
		for _, via := range []string{"Do", "Get"} {
			client := nw.HTTPClient("198.51.100.72")
			dials, hits := accepted.Load(), mHTTPPoolHits.Value()
			target := "http://framing.test" + tc.path
			var body string
			var err error
			if via == "Do" {
				var resp *http.Response
				if resp, err = client.Get(target); err == nil {
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					body = string(b)
				}
			} else {
				_, body, err = Get(context.Background(), client, target, nil)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || body != "" {
				t.Errorf("%s %s: body %q, error %v; want no body and an error naming %s", via, tc.path, body, err, tc.want)
			}
			mustGet(t, client, "http://framing.test/ok")
			if got := accepted.Load() - dials; got != 2 {
				t.Errorf("%s %s: %d dials for it and the next request, want 2: the refused conn was pooled", via, tc.path, got)
			}
			if got := mHTTPPoolHits.Value() - hits; got != 0 {
				t.Errorf("%s %s: %d pool hits, want 0", via, tc.path, got)
			}
			client.CloseIdleConnections()
		}
	}
}
