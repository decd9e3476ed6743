package netsim

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzGetHeadMatchesRequestHead: for any URL and User-Agent, the request
// the in-process path hands a handler — through Get of the host and
// target SplitURL makes of the URL, and through client.Do — carries the method, Host, path, query, request URI and
// User-Agent that http.ReadRequest parses from the bytes
// (*http.Request).Write puts on the wire for the request http.NewRequest
// makes of the URL; or the stock path and both in-process paths refuse
// the URL.
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
	tr := client.Transport.(*transport)
	f.Fuzz(func(t *testing.T, rawURL, ua string) {
		if !wireSafe(ua) {
			t.Skip("a header value the wire would reframe")
		}
		if u, err := url.Parse(rawURL); err == nil && !ascii(u.Host) {
			t.Skip("a host the wire would map to IDNA; netsim's names are ASCII")
		}
		var hdr http.Header
		if ua != "" {
			hdr = http.Header{"User-Agent": {ua}, "X-Probe": {"1"}}
		}
		var viaGet, viaDo string
		if host, target, err := splitRawURL(rawURL); err == nil {
			tr.serveGet(context.Background(), http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
				viaGet = requestFields(r)
			}), host, target, hdr)
		}
		if req, err := newRequest(rawURL, hdr); err == nil && checkRequest(req) == nil {
			tr.do(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
				viaDo = requestFields(r)
			}), req)
		}
		want := stdlibFields(rawURL, hdr)
		if viaGet != want || viaDo != want {
			t.Fatalf("%q: a handler reads\nvia Get:        %s\nvia client.Do:  %s\noff the wire:   %s", rawURL, viaGet, viaDo, want)
		}
	})
}

// splitRawURL is SplitURL of rawURL.
func splitRawURL(rawURL string) (host, target string, err error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", "", err
	}
	return SplitURL(u)
}

// newRequest is the GET of rawURL that client.Do sends, with header hdr
// (the default one when nil).
func newRequest(rawURL string, hdr http.Header) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err == nil && hdr != nil {
		req.Header = hdr
	}
	return req, err
}

// stdlibFields returns the requestFields of the request a stock server
// reads for the GET of rawURL with header hdr, or "" when the client
// refuses the URL — it is not an http:// URL netsim routes — or the wire
// does.
func stdlibFields(rawURL string, hdr http.Header) string {
	req, err := newRequest(rawURL, hdr)
	if err != nil || checkURL(req.URL) != nil {
		return ""
	}
	var wire bytes.Buffer
	if err := req.Write(&wire); err != nil {
		return ""
	}
	r, err := http.ReadRequest(bufio.NewReader(&wire))
	if err != nil {
		return ""
	}
	return requestFields(r)
}

// requestFields renders what a handler reads of r, and "" for no
// request.
func requestFields(r *http.Request) string {
	return fmt.Sprintf("method %q host %q path %q query %q uri %q ua %q",
		r.Method, r.Host, r.URL.Path, r.URL.RawQuery, r.RequestURI, r.UserAgent())
}

// wireSafe reports whether v crosses the wire as a header value
// unchanged: no control byte but HTAB, and no leading or trailing space
// or tab for the writer to trim.
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

// ascii reports whether s is all ASCII.
func ascii(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
