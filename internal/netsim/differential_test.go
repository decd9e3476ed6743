package netsim

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestFastClientMatchesStdlibClient is the netsim client's oracle: one
// handler answers the same request sequence in-process through the
// netsim client, bound with Handle, and over the wire to serveHTTP's
// stock http.Server through a stock http.Transport
// (keep-alive, then dialing per request). The handler must see the same
// requests — everything a log or a blocker could read — and the callers
// the same status, body and handler-set headers.
func TestFastClientMatchesStdlibClient(t *testing.T) {
	const serverIP, clientIP = "203.0.113.67", "198.51.100.67"
	nw := New()
	nw.Register("oracle.test", serverIP)
	big := strings.Repeat("0123456789abcdef", 640)
	var (
		mu   sync.Mutex
		seen []string // one line per request, as the handler read it
	)
	serveHTTP(t, nw, serverIP, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ip, _, _ := net.SplitHostPort(r.RemoteAddr)
		mu.Lock()
		seen = append(seen, fmt.Sprintf("%s %s %s path=%q query=%q host=%s from=%s ua=%q type=%q probe=%q len=%d crc=%08x",
			r.Method, r.RequestURI, r.Proto, r.URL.Path, r.URL.RawQuery, r.Host, ip, r.Header["User-Agent"],
			r.Header.Get("Content-Type"), r.Header["X-Probe"], r.ContentLength, crc32.ChecksumIEEE(body)))
		mu.Unlock()
		w.Header().Set("Content-Type", "text/plain")
		switch r.URL.Path {
		case "/big":
			io.WriteString(w, big)
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
			w.Header().Del("Content-Type")
			w.WriteHeader(http.StatusNoContent)
		default:
			fmt.Fprintf(w, "%d bytes", len(body))
		}
	}))

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
		{method: "GET", url: "http://oracle.test:80/fixed", ua: "GPTBot/1.0"},
		{method: "GET", url: "http://" + serverIP + "/multi", ua: "GPTBot/1.0"},
		{method: "GET", url: "http://oracle.test/big", ua: "GPTBot/1.0"},
		{method: "HEAD", url: "http://oracle.test/fixed", ua: "ClaudeBot/1.0"},
		{method: "HEAD", url: "http://oracle.test/big", ua: "ClaudeBot/1.0"},
		{method: "GET", url: "http://oracle.test/missing", ua: "ClaudeBot/1.0"},
		{method: "GET", url: "http://oracle.test/nocontent", ua: "ClaudeBot/1.0"},
		{method: "POST", url: "http://oracle.test/echo", ua: "ClaudeBot/1.0", body: "small body"},
		{method: "POST", url: "http://oracle.test/echo", ua: "ClaudeBot/1.0", body: strings.Repeat("stream", 60<<10)}, // 360 KB
		{method: "POST", url: "http://oracle.test/echo", ua: "ClaudeBot/1.0"},                                         // empty body
	}

	// drive sends the sequence through client and returns what the
	// handler saw and what the caller got, one line per response.
	drive := func(client *http.Client) (sent, got []string) {
		mu.Lock()
		seen = nil
		mu.Unlock()
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
			got = append(got, fmt.Sprintf("%s %s type=%q multi=%q nosniff=%q body: %d bytes, crc=%08x",
				resp.Proto, resp.Status, resp.Header.Get("Content-Type"), resp.Header["X-Multi"],
				resp.Header.Get("X-Content-Type-Options"), len(b), crc32.ChecksumIEEE(b)))
		}
		client.CloseIdleConnections()
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != len(requests) {
			t.Fatalf("handler saw %d requests, want %d", len(seen), len(requests))
		}
		return seen, got
	}

	fastSent, fastGot := drive(nw.HTTPClient(clientIP))
	for _, keepAlive := range []bool{true, false} {
		refSent, refGot := drive(stdlibClient(nw, clientIP, keepAlive))
		for i, rq := range requests {
			if fastSent[i] != refSent[i] {
				t.Errorf("keepAlive=%v: request %d (%s %s) as the handler read it:\nnetsim:   %s\nnet/http: %s",
					keepAlive, i, rq.method, rq.url, fastSent[i], refSent[i])
			}
			if fastGot[i] != refGot[i] {
				t.Errorf("keepAlive=%v: response %d (%s %s):\nnetsim:   %s\nnet/http: %s",
					keepAlive, i, rq.method, rq.url, fastGot[i], refGot[i])
			}
		}
	}
}
