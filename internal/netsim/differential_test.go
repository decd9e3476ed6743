package netsim

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFastClientMatchesStdlibClient is the client half of the
// hand-rolled-HTTP oracle: the fast transport and a stock
// http.Transport (keep-alive, then dialing per request) send the same
// request sequence to one net/http server. The server must see the same
// requests — everything a log or a blocker could read — the callers the
// same responses byte for byte, and the fast client must hold as many
// connections as the keep-alive stdlib client does.
func TestFastClientMatchesStdlibClient(t *testing.T) {
	const serverIP, clientIP = "203.0.113.67", "198.51.100.67"
	nw := New()
	nw.Register("oracle.test", serverIP)
	ln, err := nw.Listen(serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		seen     []string // one line per request, as the server read it
		accepted atomic.Int64
	)
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			ip, _, _ := net.SplitHostPort(r.RemoteAddr)
			mu.Lock()
			seen = append(seen, fmt.Sprintf("%s %s host=%s from=%s ua=%q type=%q probe=%q len=%d crc=%08x",
				r.Method, r.RequestURI, r.Host, ip, r.Header["User-Agent"], r.Header.Get("Content-Type"),
				r.Header["X-Probe"], r.ContentLength, crc32.ChecksumIEEE(body)))
			mu.Unlock()
			switch r.URL.Path {
			case "/big": // no Content-Length and over the server's buffer: chunked
				io.WriteString(w, strings.Repeat("0123456789abcdef", 640))
			case "/fixed":
				w.Header().Set("Content-Length", "5")
				w.Header().Set("Content-Type", "image/png")
				io.WriteString(w, "fixed")
			case "/multi":
				w.Header()["X-Multi"] = []string{"one", "two"}
				io.WriteString(w, "multi")
			case "/missing":
				http.NotFound(w, r)
			case "/nocontent":
				w.WriteHeader(http.StatusNoContent)
			case "/hangup":
				w.Header().Set("Connection", "close")
				io.WriteString(w, "bye")
			default:
				fmt.Fprintf(w, "%d bytes", len(body))
			}
		}),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				accepted.Add(1)
			}
		},
	}
	go srv.Serve(ln)
	defer srv.Close()

	type request struct {
		method, url, ua, body string
		probe                 []string
	}
	const noUA = "-" // send no User-Agent header at all
	requests := []request{
		{method: "GET", url: "http://oracle.test/", ua: "GPTBot/1.0"},
		{method: "GET", url: "http://oracle.test/"}, // the client's default User-Agent
		{method: "GET", url: "http://oracle.test/", ua: noUA},
		{method: "GET", url: "http://oracle.test/a%20b/c?q=1&r=%2F", ua: "GPTBot/1.0", probe: []string{"x", "y"}},
		{method: "GET", url: "http://oracle.test/fixed", ua: "GPTBot/1.0"},
		{method: "GET", url: "http://" + serverIP + "/multi", ua: "GPTBot/1.0"},
		{method: "GET", url: "http://oracle.test/big", ua: "GPTBot/1.0"},
		{method: "HEAD", url: "http://oracle.test/fixed", ua: "ClaudeBot/1.0"},
		{method: "HEAD", url: "http://oracle.test/big", ua: "ClaudeBot/1.0"},
		{method: "GET", url: "http://oracle.test/missing", ua: "ClaudeBot/1.0"},
		{method: "GET", url: "http://oracle.test/nocontent", ua: "ClaudeBot/1.0"},
		{method: "POST", url: "http://oracle.test/echo", ua: "ClaudeBot/1.0", body: "small body"},
		{method: "POST", url: "http://oracle.test/echo", ua: "ClaudeBot/1.0", body: strings.Repeat("stream", 60<<10)}, // over fastMaxInlineBody
		{method: "POST", url: "http://oracle.test/echo", ua: "ClaudeBot/1.0"},                                         // empty body
		{method: "GET", url: "http://oracle.test/hangup", ua: "CCBot/2.0"},
		{method: "GET", url: "http://oracle.test/", ua: "CCBot/2.0"}, // after the server hung up
	}

	// drive sends the sequence through client and returns what the
	// server saw, what the caller got (one line per response), and how
	// many conns it took.
	drive := func(client *http.Client) (sent, got []string, conns int64) {
		mu.Lock()
		seen = nil
		mu.Unlock()
		conns = -accepted.Load()
		for i, rq := range requests {
			var body io.Reader
			if rq.method == "POST" {
				body = strings.NewReader(rq.body)
			}
			req, err := http.NewRequest(rq.method, rq.url, body)
			if err != nil {
				t.Fatal(err)
			}
			if rq.ua == noUA {
				req.Header["User-Agent"] = nil
			} else if rq.ua != "" {
				req.Header.Set("User-Agent", rq.ua)
			}
			if rq.method == "POST" {
				req.Header.Set("Content-Type", "application/octet-stream")
			}
			req.Header["X-Probe"] = rq.probe
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("request %d (%s %s): %v", i, rq.method, rq.url, err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("request %d (%s %s): reading body: %v", i, rq.method, rq.url, err)
			}
			resp.Header.Del("Date")
			resp.Header.Del("Connection")
			got = append(got, fmt.Sprintf("%s %s len=%d te=%v header=%v body: %d bytes, crc=%08x", resp.Proto, resp.Status,
				resp.ContentLength, resp.TransferEncoding, resp.Header, len(b), crc32.ChecksumIEEE(b)))
		}
		client.CloseIdleConnections()
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != len(requests) {
			t.Fatalf("server saw %d requests, want %d", len(seen), len(requests))
		}
		return seen, got, conns + accepted.Load()
	}

	fallbacks := mHTTPLegacyRequests.Value()
	fastSent, fastGot, fastConns := drive(nw.HTTPClient(clientIP))
	if got := mHTTPLegacyRequests.Value() - fallbacks; got != 0 {
		t.Errorf("%d requests fell back to the stdlib transport; the sequence must stay inside the fast path", got)
	}
	// One conn per URL host (name, literal IP) plus the redial after
	// /hangup.
	if fastConns != 3 {
		t.Errorf("fast client used %d conns, want 3", fastConns)
	}
	for _, keepAlive := range []bool{true, false} {
		refSent, refGot, refConns := drive(stdlibClient(nw, clientIP, keepAlive))
		for i, rq := range requests {
			if fastSent[i] != refSent[i] {
				t.Errorf("keepAlive=%v: request %d (%s %s) as the server read it:\nfast:     %s\nnet/http: %s",
					keepAlive, i, rq.method, rq.url, fastSent[i], refSent[i])
			}
			if fastGot[i] != refGot[i] {
				t.Errorf("keepAlive=%v: response %d (%s %s):\nfast:     %s\nnet/http: %s",
					keepAlive, i, rq.method, rq.url, fastGot[i], refGot[i])
			}
		}
		want := int64(len(requests)) // a dial per request
		if keepAlive {
			want = fastConns
		}
		if refConns != want {
			t.Errorf("keepAlive=%v: net/http used %d conns, want %d", keepAlive, refConns, want)
		}
	}
}
