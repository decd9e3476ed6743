package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
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
// deadline error instead of hanging.
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
		// Promise 100 bytes, deliver 5, then stall forever.
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello")
		time.Sleep(10 * time.Second)
	})

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
	var nerr net.Error
	timeout := errors.As(err, &nerr) && nerr.Timeout()
	if !timeout && !errors.Is(err, os.ErrDeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline/timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
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
// transparently on the next request.
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

	client := nw.HTTPClient("198.51.100.63")
	for i := 0; i < 3; i++ {
		resp, err := client.Get("http://flaky.test/")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "ok" {
			t.Fatalf("request %d: body %q, err %v", i, body, err)
		}
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
		defer c.Close()
		readRequestHead(c)
		time.Sleep(10 * time.Second)
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
		DialContext:        nw.Dialer(sourceIP),
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
