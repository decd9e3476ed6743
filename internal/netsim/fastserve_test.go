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
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServeHandsBodyToHandler: a handler reads as much of the request
// body as it wants and ServeConn discards the rest before answering, so
// the next request on the keep-alive connection parses cleanly — also
// after a body larger than the ring, which the client can only finish
// writing once the server drains it.
func TestServeHandsBodyToHandler(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.80", 80)
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// ?read=N reads N body bytes (all of them when absent).
		limit := r.ContentLength
		if s := r.URL.Query().Get("read"); s != "" {
			limit, _ = strconv.ParseInt(s, 10, 64)
		}
		got, err := io.ReadAll(io.LimitReader(r.Body, limit))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "%s %d %s", r.URL.Path, len(got), got[:min(len(got), 8)])
	})
	done := make(chan error, 1)
	go func() {
		done <- Serve(ln, func(c net.Conn) { ServeConn(c, h) })
	}()
	client := nw.HTTPClient("198.51.100.80")

	big := bytes.Repeat([]byte("abcdefgh"), 300<<10/8) // streamed, 300 KiB
	cases := []struct {
		target string
		body   []byte
		want   string
	}{
		{"/all", []byte("hello"), "/all 5 hello"},
		{"/part?read=2", []byte("hello"), "/part 2 he"},
		{"/none?read=0", []byte("hello"), "/none 0 "},
		{"/big?read=3", big, "/big 3 abc"},
		{"/big", big, fmt.Sprintf("/big %d abcdefgh", len(big))},
		{"/empty", nil, "/empty 0 "},
	}
	for _, tc := range cases {
		resp, err := client.Post("http://203.0.113.80"+tc.target, "text/plain", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.target, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(got) != tc.want {
			t.Fatalf("POST %s: %d %q (%v), want %q", tc.target, resp.StatusCode, got, err, tc.want)
		}
	}

	// An idle keep-alive conn and a conn mid-request both close with the
	// listener, and Serve returns once their serve loops have.
	idle, err := nw.Dial(context.Background(), "198.51.100.81", "203.0.113.80:80")
	if err != nil {
		t.Fatal(err)
	}
	half, err := nw.Dial(context.Background(), "198.51.100.82", "203.0.113.80:80")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(half, "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 10\r\n\r\nabc")
	time.Sleep(10 * time.Millisecond) // let both conns reach their serve loops
	ln.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
	for name, c := range map[string]net.Conn{"idle": idle, "mid-request": half} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil || strings.Contains(err.Error(), "timeout") {
			t.Fatalf("%s conn after Serve returned: read %d, %v; want the conn closed", name, n, err)
		}
		c.Close()
	}
}

// TestServeResetsHeadersBetweenRequests: the request and response header
// maps are reused across a keep-alive connection's requests, so what one
// request's handler leaves in them must not reach the next: a request
// header it adds, one it adds in place of a deleted one (the map keeps
// its size), one it sets under a key an earlier request sent, and a
// response header it sets.
func TestServeResetsHeadersBetweenRequests(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.81", 80)
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var seen []string
		for k, vs := range r.Header {
			if len(vs) > 0 {
				seen = append(seen, k+"="+strings.Join(vs, ","))
			}
		}
		slices.Sort(seen)
		switch r.URL.Path {
		case "/add":
			r.Header.Set("X-Handler", "leak")
			w.Header().Set("X-Resp", "leak")
		case "/swap":
			r.Header.Del("User-Agent")
			r.Header.Set("X-Swap", "leak")
		case "/stale":
			r.Header.Set("X-Old", "leak")
		}
		io.WriteString(w, strings.Join(seen, " "))
	})
	done := make(chan error, 1)
	go func() { done <- Serve(ln, func(c net.Conn) { ServeConn(c, h) }) }()
	defer func() {
		ln.Close()
		<-done
	}()

	c, err := nw.Dial(context.Background(), "198.51.100.81", "203.0.113.81:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for _, tc := range []struct{ path, extra, want string }{
		{"/add", "", "Host=h User-Agent=a"},
		{"/swap", "", "Host=h User-Agent=a"},
		{"/x", "X-Old: o\r\n", "Host=h User-Agent=a X-Old=o"},
		{"/stale", "", "Host=h User-Agent=a"},
		{"/x", "", "Host=h User-Agent=a"},
		{"/x", "X-Old: p\r\nX-Old: q\r\n", "Host=h User-Agent=a X-Old=p,q"},
		{"/x", "", "Host=h User-Agent=a"},
	} {
		fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: h\r\nUser-Agent: a\r\n%s\r\n", tc.path, tc.extra)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != tc.want {
			t.Errorf("GET %s: handler saw %q, want %q", tc.path, body, tc.want)
		}
		if v := resp.Header.Get("X-Resp"); v != "" && tc.path != "/add" {
			t.Errorf("GET %s: response carries X-Resp %q from an earlier response", tc.path, v)
		}
	}
}

// TestSetHeaderKeepsCallersSlices: SetHeader reuses only slices it made
// itself. A slice a handler stored under the key on an earlier response
// of the conn is never written into, a value Added after SetHeader
// reaches the client beside it, and on a writer other than netsim's
// SetHeader is Header().Set.
func TestSetHeaderKeepsCallersSlices(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.83", 80)
	if err != nil {
		t.Fatal(err)
	}
	shared := []string{"text/shared"}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shared":
			w.Header()["Content-Type"] = shared
		case "/add":
			SetHeader(w, "Content-Type", "text/set")
			w.Header().Add("Content-Type", "text/added")
		default:
			SetHeader(w, "Content-Type", "text"+r.URL.Path)
		}
		io.WriteString(w, "ok")
	})
	done := make(chan error, 1)
	go func() { done <- Serve(ln, func(c net.Conn) { ServeConn(c, h) }) }()
	defer func() {
		ln.Close()
		<-done
	}()

	c, err := nw.Dial(context.Background(), "198.51.100.83", "203.0.113.83:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for _, tc := range []struct {
		path string
		want []string
	}{
		{"/shared", []string{"text/shared"}},
		{"/a", []string{"text/a"}},
		{"/add", []string{"text/set", "text/added"}},
		{"/b", []string{"text/b"}},
		{"/shared", []string{"text/shared"}},
		{"/c", []string{"text/c"}},
	} {
		fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: h\r\n\r\n", tc.path)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		if got := resp.Header.Values("Content-Type"); !slices.Equal(got, tc.want) {
			t.Errorf("GET %s: Content-Type %q, want %q", tc.path, got, tc.want)
		}
		if shared[0] != "text/shared" {
			t.Fatalf("after GET %s: the handler's own slice was overwritten with %q", tc.path, shared[0])
		}
	}

	rec := httptest.NewRecorder()
	SetHeader(rec, "Content-Type", "text/plain")
	if got := rec.Header().Values("Content-Type"); !slices.Equal(got, []string{"text/plain"}) {
		t.Errorf("SetHeader on a recorder: Content-Type %q, want [text/plain]", got)
	}
}

// TestServeDropsHandlerFraming: a handler that sets its own
// Transfer-Encoding or Content-Length does not frame the response.
// ServeConn writes the computed Content-Length alone, so client.Do and
// Get over the wire both read the body whole, on one kept-alive conn.
func TestServeDropsHandlerFraming(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.83", 80)
	if err != nil {
		t.Fatal(err)
	}
	nw.Register("framed.test", "203.0.113.83")
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Transfer-Encoding", "chunked")
		w.Header().Set("Content-Length", "999")
		io.WriteString(w, "whole body")
	})
	done := make(chan error, 1)
	go func() { done <- Serve(ln, func(c net.Conn) { ServeConn(c, h) }) }()
	defer func() {
		ln.Close()
		<-done
	}()
	client := nw.HTTPClient("198.51.100.83")
	defer client.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		resp, err := client.Get("http://framed.test/")
		if err != nil {
			t.Fatalf("client.Do %d: %v", i, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(b) != "whole body" || resp.ContentLength != int64(len(b)) {
			t.Fatalf("client.Do %d = %q (Content-Length %d), %v; want the whole body", i, b, resp.ContentLength, err)
		}
		status, body, err := Get(context.Background(), client, "http://framed.test/", nil)
		if err != nil || status != http.StatusOK || body != "whole body" {
			t.Fatalf("Get %d = %d, %q, %v; want the whole body", i, status, body, err)
		}
	}
}

// TestConnLifecycleAllocs pins the allocations of one whole connection,
// client and server halves together: dial, one GET, close, less those
// of a GET on a pooled conn — a listener Serve runs takes Get through
// RoundTrip, whose request and response objects a keep-alive GET makes
// too. Every buffer comes from a pool (two ring buffers, two read
// buffers, a response buffer), and the pools hold *[]byte, so returning
// one allocates nothing; a pool of []byte would box a slice header on
// each of the four ring and read buffer Puts.
func TestConnLifecycleAllocs(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.82", 80)
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	served := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ln, func(c net.Conn) {
			ServeConn(c, h)
			served <- struct{}{}
		})
	}()
	defer func() {
		ln.Close()
		<-done
	}()
	client := nw.HTTPClient("198.51.100.82")
	hdr := http.Header{"User-Agent": {"probe/1.0"}}
	ctx := context.Background()
	get := func() {
		if status, body, err := Get(ctx, client, "http://203.0.113.82/", hdr); err != nil || status != http.StatusOK || body != "ok" {
			t.Fatalf("Get = %d %q %v", status, body, err)
		}
	}
	cycle := func() {
		get()
		client.CloseIdleConnections()
		<-served // the server half has released its buffers
	}
	cycle()
	get()
	keepAlive := testing.AllocsPerRun(200, get)
	cycle()
	allocs := testing.AllocsPerRun(200, cycle) - keepAlive
	t.Logf("%.2f allocs per dial and close (%.2f per keep-alive GET)", allocs, keepAlive)
	bound := 34.0
	if raceEnabled {
		bound = 38 // pooled buffers the race detector dropped are made again
	}
	if allocs > bound {
		t.Errorf("%.2f allocations per dial and close, want at most %.0f", allocs, bound)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool
