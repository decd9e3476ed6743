package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// wirePort is the port of the stock http.Server that serveHTTP runs
// beside each handler it binds at port 80. stdlibClient dials it in
// port 80's place, so a stock client reaches the same handler over wire
// conns, from the same source IP.
const wirePort = 8080

// getURL is Get of the host and target SplitURL makes of rawURL.
func getURL(ctx context.Context, client *http.Client, rawURL string, hdr http.Header) (int, string, error) {
	host, target, err := splitRawURL(rawURL)
	if err != nil {
		return 0, "", err
	}
	return Get(ctx, client, host, target, hdr)
}

// serveHTTP binds h at ip:80 until the test ends, and serves it over
// the wire as well, with a stock http.Server on a listener at
// ip:wirePort.
func serveHTTP(t *testing.T, nw *Network, ip string, h http.Handler) {
	t.Helper()
	release, err := nw.Handle(ip, 80, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	ln, err := nw.Listen(ip, wirePort)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
}

// stdlibClient is the net/http reference the netsim client is checked
// against: a stock transport dialing through the same network from the
// same source IP, to serveHTTP's stock server for port 80. Compression
// is off because the netsim client never asks for it.
func stdlibClient(nw *Network, sourceIP string, keepAlive bool) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, addr string) (net.Conn, error) {
			if host, port, err := net.SplitHostPort(addr); err == nil && port == "80" {
				addr = net.JoinHostPort(host, strconv.Itoa(wirePort))
			}
			return nw.Dial(ctx, sourceIP, addr)
		},
		DisableKeepAlives:  !keepAlive,
		DisableCompression: true,
	}}
}

// TestFastClientContextCancelMidRequest: the request's ctx is the
// handler's r.Context(), so a handler that waits on it returns when the
// ctx ends, and the request fails with the ctx's error. It runs in a
// bubble: on synctest's clock each request fails at exactly the ctx's
// deadline, 50 ms after it was sent.
func TestFastClientContextCancelMidRequest(t *testing.T) {
	bubble(t, func() {
		nw := New()
		nw.Register("slow.test", "203.0.113.64")
		release, err := nw.Handle("203.0.113.64", 80, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done() // never answer before the client gives up
			w.WriteHeader(http.StatusGatewayTimeout)
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer release()

		client := nw.HTTPClient("198.51.100.64")
		for _, via := range []string{"Do", "Get"} {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			deadline, _ := ctx.Deadline()
			var err error
			if via == "Do" {
				var req *http.Request
				if req, err = http.NewRequestWithContext(ctx, http.MethodGet, "http://slow.test/", nil); err != nil {
					t.Fatal(err)
				}
				_, err = client.Do(req)
			} else {
				_, _, err = Get(ctx, client, "slow.test", "/", nil)
			}
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: %v, want the ctx's deadline error", via, err)
			}
			late := time.Since(deadline)
			if late > 5*time.Second {
				t.Fatalf("%s: request failed %v after its ctx's deadline", via, late)
			}
			if syntheticClock && late != 0 {
				t.Errorf("%s: request failed %v of synthetic time after its ctx's deadline, want exactly at it", via, late)
			}
		}
	})
}

// TestGetCallsServedHandlerInProcess: Get and client.Do to a handler
// bound with Handle call it with no conn, and hand it the
// request a stock server reads, from the client's source IP. Get returns
// what the handler wrote: a 3xx as is, no body for a 204, and the first
// 1 MiB of a longer body, while the handler's writes report every byte;
// client.Do returns the whole body. An unknown host and a canceled ctx
// fail as a dial does.
func TestGetCallsServedHandlerInProcess(t *testing.T) {
	nw := New()
	nw.Register("direct.test", "203.0.113.84")
	big := strings.Repeat("0123456789abcdef", (maxBodyBytes+64)/16)
	var seen string
	var wrote int
	serveHTTP(t, nw, "203.0.113.84", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	}))
	client := nw.HTTPClient("198.51.100.84")
	doClient := nw.HTTPClient("198.51.100.84")
	doClient.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	ctx := context.Background()
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
		{"http://direct.test/big", "probe/1.0", 200, big, `GET direct.test /big "probe/1.0" 198.51.100.84`},
	} {
		var hdr http.Header
		if c.ua != "" {
			hdr = http.Header{"User-Agent": {c.ua}}
		}
		status, body, err := getURL(ctx, client, c.url, hdr)
		if want := c.body[:min(len(c.body), maxBodyBytes)]; err != nil || status != c.status || body != want {
			t.Fatalf("Get(%s) = %d, %d bytes, %v; want %d, %d bytes", c.url, status, len(body), err, c.status, len(want))
		}
		if seen != c.seen {
			t.Fatalf("Get(%s): handler saw %s, want %s", c.url, seen, c.seen)
		}
		seen = ""
		req, err := http.NewRequest(http.MethodGet, c.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.ua != "" {
			req.Header.Set("User-Agent", c.ua)
		}
		resp, err := doClient.Do(req)
		if err != nil {
			t.Fatalf("client.Do(%s): %v", c.url, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || string(b) != c.body || resp.ContentLength != int64(len(b)) {
			t.Fatalf("client.Do(%s) = %d, %d bytes (Content-Length %d); want %d, %d bytes", c.url, resp.StatusCode, len(b), resp.ContentLength, c.status, len(c.body))
		}
		if seen != c.seen {
			t.Fatalf("client.Do(%s): handler saw %s, want %s", c.url, seen, c.seen)
		}
	}
	if wrote != len(big) {
		t.Fatalf("handler's write of %d bytes reported %d", len(big), wrote)
	}
	if _, _, err := Get(ctx, client, "nowhere.test", "/", nil); !errors.Is(err, errNameNotFound) {
		t.Fatalf("Get of an unknown host = %v, want %v", err, errNameNotFound)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := Get(canceled, client, "direct.test", "/", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get under a canceled ctx = %v, want %v", err, context.Canceled)
	}
}

// TestGetCapsBody: Get reads the first 1 MiB of a longer body as the
// whole page, without an error, on every call.
func TestGetCapsBody(t *testing.T) {
	nw := New()
	nw.Register("big.test", "203.0.113.71")
	page := bytes.Repeat([]byte("0123456789abcdef"), (maxBodyBytes+64)/16)
	serveHTTP(t, nw, "203.0.113.71", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(page)
	}))

	client := nw.HTTPClient("198.51.100.71")
	for i := 0; i < 2; i++ {
		status, body, err := Get(context.Background(), client, "big.test", "/", nil)
		if err != nil || status != http.StatusOK || body != string(page[:maxBodyBytes]) {
			t.Fatalf("Get %d = %d, %d bytes, %v; want 200 and the first %d bytes", i, status, len(body), err, maxBodyBytes)
		}
	}
}

// TestWriterBodies: the body a handler writes — one string, strings and
// bytes in either order, two strings, a string past Get's cap, none
// under a 204 — reaches Get (capped at 1 MiB) and client.Do whole, every
// write reports its full count, and a HEAD reads the written length
// with no body. A body written as one string reaches Get as that
// string, sharing its bytes; a later Get on the pooled writer leaves an
// earlier body as it was.
func TestWriterBodies(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", (maxBodyBytes+64)/16)
	type write struct {
		s     string
		bytes bool // written with Write, not WriteString
	}
	cases := []struct {
		name   string
		status int
		writes []write
		shared bool // Get's body shares the first string's bytes
	}{
		{"one string", http.StatusOK, []write{{"hello, world", false}}, true},
		{"string then bytes", http.StatusOK, []write{{"hello, ", false}, {"world", true}}, false},
		{"bytes then string", http.StatusOK, []write{{"hello, ", true}, {"world", false}}, false},
		{"two strings", http.StatusOK, []write{{"hello, ", false}, {"world", false}}, false},
		{"over the cap", http.StatusOK, []write{{big, false}}, true},
		{"bytes only", http.StatusOK, []write{{"raw bytes", true}}, false},
		{"no content", http.StatusNoContent, nil, false},
	}
	nw := New()
	nw.Register("writer.test", "203.0.113.72")
	serveHTTP(t, nw, "203.0.113.72", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		if err != nil || i >= len(cases) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		c := cases[i]
		if c.status != http.StatusOK {
			w.WriteHeader(c.status)
		}
		for _, wr := range c.writes {
			var n int
			if wr.bytes {
				n, err = w.Write([]byte(wr.s))
			} else {
				n, err = io.WriteString(w, wr.s)
			}
			if n != len(wr.s) || err != nil {
				t.Errorf("%s: a write of %d bytes reported %d, %v", c.name, len(wr.s), n, err)
			}
		}
	}))
	client := nw.HTTPClient("198.51.100.72")
	ctx := context.Background()
	for i, c := range cases {
		var want string
		if c.status == http.StatusOK {
			for _, wr := range c.writes {
				want += wr.s
			}
		}
		target := "http://writer.test/" + strconv.Itoa(i)

		status, body, err := Get(ctx, client, "writer.test", "/"+strconv.Itoa(i), nil)
		if err != nil || status != c.status || body != want[:min(len(want), maxBodyBytes)] {
			t.Errorf("%s: Get = %d, %d bytes, %v; want %d, %d bytes", c.name, status, len(body), err, c.status, min(len(want), maxBodyBytes))
		}
		if shared := len(body) > 0 && unsafe.StringData(body) == unsafe.StringData(c.writes[0].s); shared != c.shared {
			t.Errorf("%s: Get's body shares the handler's string: %v, want %v", c.name, shared, c.shared)
		}

		for _, method := range []string{http.MethodGet, http.MethodHead} {
			req, err := http.NewRequestWithContext(ctx, method, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, method, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			wantBody := want
			if method == http.MethodHead {
				wantBody = ""
			}
			if err != nil || resp.StatusCode != c.status || string(got) != wantBody || resp.ContentLength != int64(len(want)) {
				t.Errorf("%s: %s = %d, %d bytes, length %d, %v; want %d, %d bytes, length %d",
					c.name, method, resp.StatusCode, len(got), resp.ContentLength, err, c.status, len(wantBody), len(want))
			}
		}
	}

	// A string body, then a bytes body on the pooled writer: the first
	// body is not the writer's buffer.
	_, first, err := Get(ctx, client, "writer.test", "/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Get(ctx, client, "writer.test", "/5", nil); err != nil {
		t.Fatal(err)
	}
	if first != "hello, world" {
		t.Fatalf("a later Get changed an earlier body to %q", first)
	}
}

// TestGetReturnsRedirectAsIs: Get follows no redirect; a 302 comes back
// with its own status and body, and nothing fetches the Location.
func TestGetReturnsRedirectAsIs(t *testing.T) {
	nw := New()
	nw.Register("moved.test", "203.0.113.69")
	var requests int
	serveHTTP(t, nw, "203.0.113.69", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		w.Header().Set("Location", "http://moved.test/elsewhere")
		w.WriteHeader(http.StatusFound)
		io.WriteString(w, "moved")
	}))

	client := nw.HTTPClient("198.51.100.69")
	status, body, err := Get(context.Background(), client, "moved.test", "/", nil)
	if err != nil || status != http.StatusFound || body != "moved" {
		t.Fatalf("Get = %d, %q, %v; want the 302 and its body", status, body, err)
	}
	if requests != 1 {
		t.Fatalf("server answered %d requests, want 1: the redirect was followed", requests)
	}
}

// TestGetRefusesClient: Get fails, before routing, for a client whose
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
		status, body, err := Get(context.Background(), client, "refuse.test", "/", nil)
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

// TestHTTPClientRejectsUnsupported: a request outside the subset the
// client sends fails with an error naming what it asked for, and so
// does any request, through client.Do or Get, to a listener, which
// serves no handler; nothing is dialed for any of them.
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
		{name: "no handler", method: http.MethodGet, url: "http://reject.test/", want: "no handler serves " + serverIP + ":80"},
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
	if _, _, err := Get(context.Background(), client, "reject.test", "/", nil); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Errorf("Get to a listener with no handler: %v, want an error naming it", err)
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

// TestServeHandsBodyToHandler: a handler reads as much of a POST's body
// as it wants, through client.Do, and the next request is unaffected.
func TestServeHandsBodyToHandler(t *testing.T) {
	nw := New()
	release, err := nw.Handle("203.0.113.80", 80, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	client := nw.HTTPClient("198.51.100.80")

	big := bytes.Repeat([]byte("abcdefgh"), 300<<10/8) // 300 KiB
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
}

// TestServeResetsHeadersBetweenRequests: Get reuses a pooled writer, so
// what one handler leaves in its response header must not reach the
// next handler's.
func TestServeResetsHeadersBetweenRequests(t *testing.T) {
	nw := New()
	serveHTTP(t, nw, "203.0.113.81", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var seen []string
		for k, vs := range w.Header() {
			if len(vs) > 0 {
				seen = append(seen, k+"="+strings.Join(vs, ","))
			}
		}
		slices.Sort(seen)
		switch r.URL.Path {
		case "/set":
			w.Header().Set("X-Resp", "leak")
		case "/setheader":
			SetHeader(w, "Content-Type", "text/leak")
		case "/add":
			w.Header().Add("X-Resp", "a")
			w.Header().Add("X-Resp", "b")
		}
		io.WriteString(w, strings.Join(seen, " "))
	}))

	client := nw.HTTPClient("198.51.100.81")
	for _, path := range []string{"/set", "/x", "/setheader", "/x", "/add", "/x"} {
		status, body, err := Get(context.Background(), client, "203.0.113.81", path, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, status, err)
		}
		if body != "" {
			t.Errorf("GET %s: handler found %q in a fresh response header", path, body)
		}
	}
}

// TestSetHeaderKeepsCallersSlices: SetHeader reuses only slices it made
// itself. On the writer Get reuses, a slice a handler stored under the
// key on an earlier response is never written into, and a value Added
// after SetHeader stays beside it; on a writer other than Get's,
// SetHeader is Header().Set.
func TestSetHeaderKeepsCallersSlices(t *testing.T) {
	shared := []string{"text/shared"}
	h := func(w http.ResponseWriter, path string) {
		switch path {
		case "/shared":
			w.Header()["Content-Type"] = shared
		case "/add":
			SetHeader(w, "Content-Type", "text/set")
			w.Header().Add("Content-Type", "text/added")
		default:
			SetHeader(w, "Content-Type", "text"+path)
		}
	}
	w := getPool.New().(*exchange).w
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
		w.reset(false)
		h(&w, tc.path)
		if got := w.Header().Values("Content-Type"); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Content-Type %q, want %q", tc.path, got, tc.want)
		}
		clear(w.hdr)
		if shared[0] != "text/shared" {
			t.Fatalf("after %s: the handler's own slice was overwritten with %q", tc.path, shared[0])
		}
	}

	for name, w := range map[string]http.ResponseWriter{
		"a recorder":         httptest.NewRecorder(),
		"client.Do's writer": &responseWriter{hdr: make(http.Header)},
	} {
		SetHeader(w, "Content-Type", "text/plain")
		if got := w.Header().Values("Content-Type"); !slices.Equal(got, []string{"text/plain"}) {
			t.Errorf("SetHeader on %s: Content-Type %q, want [text/plain]", name, got)
		}
	}
}

// TestServeDropsHandlerFraming: a handler that sets its own
// Transfer-Encoding or Content-Length does not frame the response.
// client.Do's response carries the computed length alone, and client.Do
// and Get both read the body whole.
func TestServeDropsHandlerFraming(t *testing.T) {
	nw := New()
	nw.Register("framed.test", "203.0.113.83")
	serveHTTP(t, nw, "203.0.113.83", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Transfer-Encoding", "chunked")
		w.Header().Set("Content-Length", "999")
		io.WriteString(w, "whole body")
	}))
	client := nw.HTTPClient("198.51.100.83")
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
		if te, cl := resp.Header["Transfer-Encoding"], resp.Header["Content-Length"]; te != nil || cl != nil {
			t.Fatalf("client.Do %d: header carries the handler's framing: Transfer-Encoding %q, Content-Length %q", i, te, cl)
		}
		status, body, err := Get(context.Background(), client, "framed.test", "/", nil)
		if err != nil || status != http.StatusOK || body != "whole body" {
			t.Fatalf("Get %d = %d, %q, %v; want the whole body", i, status, body, err)
		}
	}
}

// TestConnLifecycleAllocs pins the allocations of one whole wire
// connection, both ends together: dial, one exchange, close, with
// Serve running the server end. Every ring buffer comes from a pool
// that holds *[]byte, so returning one allocates nothing; a pool of
// []byte would box a slice header on each Put.
func TestConnLifecycleAllocs(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.82", 80)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ln, func(c net.Conn) {
			var b [2]byte
			if _, err := io.ReadFull(c, b[:]); err == nil {
				c.Write(b[:])
			}
			io.Copy(io.Discard, c) // until the client hangs up
			c.Close()
			served <- struct{}{}
		})
	}()
	defer func() {
		ln.Close()
		<-done
	}()
	ctx := context.Background()
	var b [2]byte
	cycle := func() {
		c, err := nw.Dial(ctx, "198.51.100.82", "203.0.113.82:80")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, b[:]); err != nil {
			t.Fatal(err)
		}
		c.Close()
		<-served // the server end has released its buffers
	}
	cycle()
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("%.2f allocs per dial, exchange and close", allocs)
	bound := 12.0
	if raceEnabled {
		bound = 16 // pooled buffers the race detector dropped are made again
	}
	if allocs > bound {
		t.Errorf("%.2f allocations per dial, exchange and close, want at most %.0f", allocs, bound)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestHTTPKeepAlivePoolsPerSourceAndTarget: a server sees one remote
// port across sequential requests from one netsim client, as it does
// from a stock client's kept-alive conn, while a stock client with
// keep-alives off dials afresh (a new ephemeral port) per request.
func TestHTTPKeepAlivePoolsPerSourceAndTarget(t *testing.T) {
	nw := New()
	nw.Register("pool.test", "203.0.113.30")
	var ports []string
	serveHTTP(t, nw, "203.0.113.30", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, port, _ := net.SplitHostPort(r.RemoteAddr)
		ports = append(ports, port)
		io.WriteString(w, "ok")
	}))
	for _, c := range []struct {
		name   string
		client *http.Client
		reuse  bool
	}{
		{"netsim", nw.HTTPClient("198.51.100.60"), true},
		{"stock keep-alive", stdlibClient(nw, "198.51.100.60", true), true},
		{"stock per-request dial", stdlibClient(nw, "198.51.100.60", false), false},
	} {
		ports = nil
		for i := 0; i < 3; i++ {
			resp, err := c.client.Get("http://pool.test/")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		c.client.CloseIdleConnections()
		if len(ports) != 3 || (ports[0] == ports[1] && ports[1] == ports[2]) != c.reuse {
			t.Errorf("%s: requests came from ports %v, want one port: %v", c.name, ports, c.reuse)
		}
	}
}

// TestFastClientPostBodyAcrossRing sends a POST body several times the
// 32 KiB netsim ring, three times: from a stock client over one
// kept-alive wire conn to a stock server — the writer must
// interleave with the server's reads instead of deadlocking on a full
// ring — and in-process from the netsim client. The handler must read
// every byte intact.
func TestFastClientPostBodyAcrossRing(t *testing.T) {
	const bodySize = 100 << 10 // ~3 rings
	payload := bytes.Repeat([]byte("0123456789abcdef"), bodySize/16)

	nw := New()
	nw.Register("post.test", "203.0.113.62")
	serveHTTP(t, nw, "203.0.113.62", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	}))

	for name, client := range map[string]*http.Client{
		"stock":  stdlibClient(nw, "198.51.100.62", true),
		"netsim": nw.HTTPClient("198.51.100.62"),
	} {
		client.Timeout = 10 * time.Second
		for i := 0; i < 3; i++ {
			resp, err := client.Post("http://post.test/upload", "application/octet-stream", bytes.NewReader(payload))
			if err != nil {
				t.Fatalf("%s round %d: %v", name, i, err)
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s round %d: %v", name, i, err)
			}
			if resp.StatusCode != http.StatusOK || string(reply) != strconv.Itoa(bodySize) {
				t.Fatalf("%s round %d: status %d, reply %q", name, i, resp.StatusCode, reply)
			}
		}
		client.CloseIdleConnections()
	}
}

// TestCloseIdleConnections: http.Client.CloseIdleConnections on a
// netsim client has nothing to close, and the next request succeeds;
// on a stock client (legacy=true) it empties the pool and the next
// request redials.
func TestCloseIdleConnections(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			nw := New()
			nw.Register("idle.test", "203.0.113.66")
			var ports []string
			serveHTTP(t, nw, "203.0.113.66", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, port, _ := net.SplitHostPort(r.RemoteAddr)
				ports = append(ports, port)
				io.WriteString(w, "ok")
			}))
			client := nw.HTTPClient("198.51.100.66")
			if legacy {
				client = stdlibClient(nw, "198.51.100.66", true)
			}
			get := func() {
				resp, err := client.Get("http://idle.test/")
				if err != nil {
					t.Fatal(err)
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(b) != "ok" {
					t.Fatalf("body %q, err %v", b, err)
				}
			}
			get()
			get()
			client.CloseIdleConnections()
			get()
			if ports[0] != ports[1] || (ports[1] != ports[2]) != legacy {
				t.Fatalf("requests came from ports %v; a redial after CloseIdleConnections: %v", ports, legacy)
			}
		})
	}
}
