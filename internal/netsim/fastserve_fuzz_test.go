package netsim

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"testing"
)

// FuzzFastRequestParse throws arbitrary bytes at ServeConn: any input
// must either parse into well-formed requests (keep-alive style, several
// per connection) or end with an error — never panic, never loop
// forever. The same bytes are served twice, once as the reads arrive and
// once trickled in a byte per read, and both must yield the same
// requests and the same ending: what a request holds may not depend on
// where the reads split it, even after the reader reuses its buffer.
// Every accepted target must also yield exactly the URL
// url.ParseRequestURI makes of it, whether it was split in place or
// parsed.
func FuzzFastRequestParse(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a.test\r\nUser-Agent: GPTBot/1.0\r\n\r\n"))
	f.Add([]byte("GET /a HTTP/1.1\r\nHost: a.test\r\n\r\nGET /b HTTP/1.1\r\nHost: a.test\r\n\r\n"))
	f.Add([]byte("POST /submit HTTP/1.1\r\nHost: a.test\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("HEAD /robots.txt HTTP/1.0\r\nHost: a.test\r\n\r\n"))
	f.Add([]byte("GET /a%20b?q=1#frag HTTP/1.1\r\nHost: a\r\nX-Weird: v\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nConnection: close\r\nHost: a\r\n\r\n"))
	f.Add([]byte("BROKEN"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\nContent-Length: 99999999\r\n\r\nshort"))
	f.Add([]byte("GET /v1/decide?host=a.test&agent=GPTBot&path=%2F HTTP/1.1\r\nHost: gw\r\n\r\n"))
	f.Add([]byte("GET /p? HTTP/1.1\r\nHost: a\r\n\r\nGET /p?? HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Add([]byte("GET /a!b?q=\x80;x#y HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Add([]byte("GET /a:b@c;d=e?q=1&r=2+3 HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Add([]byte("POST /v1/batch?x HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		serve := func(step int) (seen []string, end string) {
			err := ServeConn(&fuzzConn{data: data, step: step}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == "" || r.URL == nil || r.RequestURI == "" {
					t.Fatalf("accepted incomplete request: %+v", r)
				}
				if want, err := url.ParseRequestURI(r.RequestURI); err != nil || *r.URL != *want {
					t.Fatalf("target %q: URL %#v, url.ParseRequestURI gives %#v (%v)", r.RequestURI, r.URL, want, err)
				}
				seen = append(seen, fmt.Sprintf("%s %s host=%q path=%q query=%q len=%d header=%v",
					r.Method, r.RequestURI, r.Host, r.URL.Path, r.URL.RawQuery, r.ContentLength, r.Header))
			}))
			return seen, fmt.Sprint(err)
		}
		seen, end := serve(0)
		trickled, trickledEnd := serve(1)
		if !slices.Equal(seen, trickled) || end != trickledEnd {
			t.Fatalf("reads as they come: %q, ending %s\nbyte per read:    %q, ending %s", seen, end, trickled, trickledEnd)
		}
	})
}
