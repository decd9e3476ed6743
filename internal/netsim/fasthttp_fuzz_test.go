package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
)

// fuzzConn serves a fixed byte stream as a net.Conn: reads drain the
// buffer then report io.EOF, writes are discarded. It stands in for a
// peer that sends exactly the fuzzed bytes and hangs up. A positive step
// caps every read at that many bytes, as a peer trickling its bytes in
// would.
type fuzzConn struct {
	data []byte
	step int
}

func (c *fuzzConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	if c.step > 0 && len(p) > c.step {
		p = p[:c.step]
	}
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, nil
}

func (c *fuzzConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "netsim" }
func (fuzzAddr) String() string  { return "198.51.100.1:9" }

// FuzzFastResponseParse throws arbitrary bytes at the fast client's
// response parser, down both of the body readers that share it:
// client.Do's (readRespHead, then an *http.Response whose body is read
// through a 1 MiB io.LimitReader) and Get's wire path (the same
// response, read by readBody), the latter served whole and a byte per
// read. Any input must either parse into a response whose body drains
// to a clean end, or return an error — never panic, never loop forever
// — and the readers must agree on the status, the body and whether an
// error occurs. Content-Length is the one body framing either reads: a
// head with a Transfer-Encoding field is refused, and so is one with a
// body but no Content-Length.
func FuzzFastResponseParse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.0 404 Not Found\r\n\r\nbody until eof"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\nContent-Length: 3\r\n\r\nmoved"))
	f.Add([]byte("HTTP/1.1 421 Misdirected Request\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno"))
	f.Add([]byte("HTTP/9.9 xxx\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\nshort"))
	f.Add([]byte("garbage\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New().HTTPClient("198.51.100.1").Transport.(*fastTransport)
		conn := func(step int) *fastConn {
			fc := &fastConn{c: &fuzzConn{data: data, step: step}, key: "fuzz.test"}
			fc.br.c = fc.c
			fc.br.buf = make([]byte, fastReadBufSize)
			return fc
		}

		// client.Do's path.
		req, err := http.NewRequest(http.MethodGet, "http://fuzz.test/", nil)
		if err != nil {
			t.Fatal(err)
		}
		fc := conn(0)
		hdr := make(http.Header)
		wantStatus, wantBody := 0, ""
		rh, _, wantErr := readRespHead(&fc.br, hdr, false)
		if wantErr == nil {
			resp := tr.response(fc, rh, hdr, req)
			if resp.StatusCode < 100 || resp.StatusCode > 999 {
				t.Fatalf("accepted out-of-range status %d", resp.StatusCode)
			}
			wantStatus = resp.StatusCode
			if hasBody(rh.code) && hdr["Content-Length"] == nil {
				t.Fatalf("accepted a %d response with no Content-Length", rh.code)
			}
			if headHasTransferEncoding(data) {
				t.Fatal("accepted a response with a Transfer-Encoding")
			}
			var b []byte
			if b, wantErr = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes)); wantErr == nil {
				wantBody = string(b)
			}
			resp.Body.Close()
		}

		// Get's wire path.
		for _, step := range []int{0, 1} {
			fc := conn(step)
			status, body := 0, ""
			rh, _, err := readRespHead(&fc.br, nil, false)
			if err == nil {
				status = rh.code
				body, err = readBody(tr.response(fc, rh, nil, req))
			}
			if status != wantStatus || body != wantBody || (err == nil) != (wantErr == nil) {
				t.Fatalf("step %d: Get's path read %d, %q, %v; client.Do's read %d, %q, %v",
					step, status, body, err, wantStatus, wantBody, wantErr)
			}
		}
	})
}

// headHasTransferEncoding reports whether the response head in data —
// its lines after the status line, through the first empty one — has a
// Transfer-Encoding field.
func headHasTransferEncoding(data []byte) bool {
	lines := bytes.Split(data, []byte("\n"))
	for _, line := range lines[min(1, len(lines)):] {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			return false
		}
		if key, _, ok := bytes.Cut(line, []byte(":")); ok && asciiEqualFold(key, "Transfer-Encoding") {
			return true
		}
	}
	return false
}

// FuzzGetHeadMatchesRequestHead: for any URL, the request Get hands a
// handler in-process carries the method, Host, path, query, request URI
// and User-Agent that ServeConn parses from the head client.Do's path
// writes for the URL url.Parse makes of it — or both refuse the URL.
func FuzzGetHeadMatchesRequestHead(f *testing.F) {
	for _, u := range []string{
		"http://site.test/", "http://site.test", "http://203.0.113.9:8080/a/b.html",
		"http://site.test/robots.txt%00", "HTTP://Site.Test:80/a%20b?q=1&r=%2F#top",
		"http://u:p@site.test/", "https://site.test/", "http://site.test:/x",
		"http://[2001:db8::1]:80/x", "http://site.test/a b", "http://site.test/?",
		"http://site.test/p;x=1,y@z", "http://site.test//double/./dot/../", "http:///nohost",
		"http://site.test/p?q=1&r=2", "http://site.test/p?a b",
	} {
		f.Add(u, "GPTBot/1.0")
	}
	f.Add("http://site.test/", "")
	client := New().HTTPClient("198.51.100.1")
	tr := client.Transport.(*fastTransport)
	f.Fuzz(func(t *testing.T, rawURL, ua string) {
		if !wireSafe(ua) {
			t.Skip("a header value the wire would reframe")
		}
		var hdr http.Header
		if ua != "" {
			hdr = http.Header{"User-Agent": {ua}, "X-Probe": {"1"}}
		}
		var want, got string
		u, err := url.Parse(rawURL)
		if err == nil {
			err = checkURL(u)
		}
		if err == nil {
			head := appendRequestHead(nil, &http.Request{Method: http.MethodGet, URL: u, Host: u.Host, Header: hdr})
			ServeConn(&fuzzConn{data: head}, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
				want = requestFields(r)
			}))
		}
		_, host, target, err := getTarget(client, rawURL)
		if err == nil {
			tr.serveDirect(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
				got = requestFields(r)
			}), host, target, hdr)
		}
		if got != want {
			t.Fatalf("%q: Get hands the handler\n%s\nServeConn parses\n%s", rawURL, got, want)
		}
	})
}

// requestFields renders what a handler reads of r, and "" for no
// request.
func requestFields(r *http.Request) string {
	return fmt.Sprintf("method %q host %q path %q query %q uri %q ua %q",
		r.Method, r.Host, r.URL.Path, r.URL.RawQuery, r.RequestURI, r.UserAgent())
}

// wireSafe reports whether v crosses the wire as a header value
// unchanged: no control byte but HTAB, and no leading or trailing space
// or tab for ServeConn to trim.
func wireSafe(v string) bool {
	if v != strings.Trim(v, " \t") {
		return false
	}
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
