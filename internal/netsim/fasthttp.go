package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// The netsim-native HTTP/1.1 framing, client half (fastserve.go is the
// server half; the two share connReader and the byte helpers below).
//
// Profiles since PR 3 put ~85% of the remaining per-request cost in
// stdlib net/http: request/response serialization, MIME header maps, the
// per-connection reader and writer goroutine pair, and a few dozen
// allocations per exchange — all machinery for generality the closed
// world behind netsim never uses. fastTransport is an http.RoundTripper
// that speaks exactly the subset our traffic needs — GET/HEAD/POST to
// http:// URLs, a small fixed header set, request bodies written with
// the head, Content-Length response bodies, keep-alive pooling —
// straight over the buffered duplex conns, with pooled buffers and no
// per-request goroutines. ServeConn frames every response with a
// Content-Length, so that is the one body framing the client reads: a
// response with a Transfer-Encoding, or with a body but no
// Content-Length, fails with an error. A request outside the subset
// fails with an error naming what it asked for; there is no second
// transport to hand it to. Get writes no request at all to a listener
// ServeHTTP serves: it calls the handler in-process (serveDirect), and
// goes through RoundTrip only for any other listener.

const (
	fastMaxIdlePerHost = 2  // matches the stdlib transport config it replaces
	fastMaxIdleTotal   = 64 // ditto
	fastReadBufSize    = 8 * 1024
)

var (
	// fastHeadPool recycles request-head / response-head scratch buffers.
	fastHeadPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	// fastReadPool recycles per-connection read buffers. It holds
	// *[]byte, as the other pools do, so a Put boxes nothing.
	fastReadPool = sync.Pool{New: func() any { b := make([]byte, fastReadBufSize); return &b }}
)

var errFastHeaderTooLong = errors.New("netsim: fast http: header line exceeds buffer")

// fastTransport implements http.RoundTripper over a Network.
type fastTransport struct {
	nw         *Network
	sourceIP   string
	remoteAddr string // of the requests Get hands a handler in-process

	mu sync.Mutex
	// idle holds the pooled conns of every host, least recently used
	// first. It never exceeds fastMaxIdleTotal, so finding a host's newest
	// conn and counting a host's conns are short scans, and the conn the
	// total cap evicts is idle[0].
	idle []*fastConn
}

func newFastTransport(nw *Network, sourceIP string) *fastTransport {
	addr := &net.TCPAddr{IP: net.ParseIP(sourceIP), Port: nw.ephemeralPort()}
	return &fastTransport{nw: nw, sourceIP: sourceIP, remoteAddr: addr.String()}
}

// checkRequest returns an error naming what req asks for outside the
// subset fastTransport speaks, or nil when it fits.
func checkRequest(req *http.Request) error {
	if req.URL == nil {
		return errors.New("netsim: fast http: request has no URL")
	}
	if err := checkURL(req.URL); err != nil {
		return err
	}
	switch {
	case len(req.TransferEncoding) > 0:
		return fmt.Errorf("netsim: fast http: unsupported transfer encoding %q", req.TransferEncoding)
	case len(req.Trailer) > 0:
		return errors.New("netsim: fast http: unsupported request trailers")
	}
	hasBody := req.Body != nil && req.Body != http.NoBody
	switch req.Method {
	case http.MethodGet, http.MethodHead:
		if hasBody && req.ContentLength != 0 {
			return fmt.Errorf("netsim: fast http: unsupported %s request body", req.Method)
		}
	case http.MethodPost:
		// A body with no declared length would need chunked encoding.
		if req.ContentLength < 0 || (hasBody && req.ContentLength == 0) {
			return errors.New("netsim: fast http: unsupported POST body of unknown length")
		}
		// ServeConn would refuse it; the body is sent with the head.
		if req.ContentLength > srvMaxBody {
			return fmt.Errorf("netsim: fast http: POST body of %d bytes exceeds the server's %d-byte limit", req.ContentLength, srvMaxBody)
		}
	default:
		return fmt.Errorf("netsim: fast http: unsupported method %q", req.Method)
	}
	return nil
}

// checkURL returns an error unless u is an http:// URL with a host and
// no userinfo.
func checkURL(u *url.URL) error {
	switch {
	case u.Scheme != "http":
		return fmt.Errorf("netsim: fast http: unsupported scheme %q", u.Scheme)
	case u.Host == "" || u.Opaque != "" || u.User != nil:
		return fmt.Errorf("netsim: fast http: unsupported URL %q", u.Redacted())
	}
	return nil
}

// fastConn is one pooled connection: the raw conn plus its persistent
// buffered reader (leftover reads survive across pooled requests).
type fastConn struct {
	c             net.Conn
	br            connReader
	deadlineArmed bool

	key string // URL host it was dialed for (port included when present)
}

func (fc *fastConn) close() {
	fc.c.Close()
	fc.br.putBuf()
}

// RoundTrip implements http.RoundTripper.
func (t *fastTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := checkRequest(req); err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	headp := fastHeadPool.Get().(*[]byte)
	head := appendRequestHead((*headp)[:0], req)

	// The body rides in the head buffer: one ring write, and the request
	// can be replayed verbatim if a pooled conn turns out dead.
	if req.Body != nil {
		n := len(head)
		head = slices.Grow(head, int(req.ContentLength))[:n+int(req.ContentLength)]
		_, err := io.ReadFull(req.Body, head[n:])
		req.Body.Close()
		if err != nil {
			*headp = head[:0]
			fastHeadPool.Put(headp)
			return nil, fmt.Errorf("netsim: fast http: reading request body: %w", err)
		}
	}

	hdr := make(http.Header, 4)
	isHead := req.Method == http.MethodHead
	fc, rh, err := t.send(req.Context(), req.URL.Host, head, hdr, isHead)
	*headp = head[:0]
	fastHeadPool.Put(headp)
	if err != nil {
		return nil, err
	}
	return t.response(fc, rh, hdr, req), nil
}

// send writes the serialized request head (its body included) on key's
// most recently pooled conn or a fresh one, and parses the response
// head, filling hdr when it is non-nil; isHead says the request was a
// HEAD. ctx's deadline, if any, is armed on the conn. A pooled conn may
// have been closed by the server (site removed, server shut down)
// between requests; the write or the first response byte then fails
// cleanly, and — like the stdlib transport — send writes head once more
// on a fresh conn. On success the caller owns the returned conn and
// must read the body off it.
func (t *fastTransport) send(ctx context.Context, key string, head []byte, hdr http.Header, isHead bool) (*fastConn, respHead, error) {
	mHTTPRequests.Inc()
	started := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, respHead{}, err
	}
	deadline, hasDeadline := ctx.Deadline()
	for attempt := 0; ; attempt++ {
		fc, reused, err := t.getConn(ctx, key)
		if err != nil {
			return nil, respHead{}, err
		}
		if hasDeadline {
			fc.c.SetDeadline(deadline)
			fc.deadlineArmed = true
		} else if fc.deadlineArmed {
			fc.c.SetDeadline(time.Time{})
			fc.deadlineArmed = false
		}
		rh, retryable, err := t.exchange(fc, head, hdr, isHead)
		if err == nil {
			mHTTPLatency.ObserveSince(started)
			return fc, rh, nil
		}
		fc.close()
		if reused && attempt == 0 && retryable {
			mHTTPRetries.Inc()
			continue
		}
		return nil, respHead{}, err
	}
}

// getConn pops key's most recently pooled connection or dials a fresh
// one.
func (t *fastTransport) getConn(ctx context.Context, key string) (*fastConn, bool, error) {
	t.mu.Lock()
	for i := len(t.idle) - 1; i >= 0; i-- {
		if fc := t.idle[i]; fc.key == key {
			t.idle = slices.Delete(t.idle, i, i+1)
			t.mu.Unlock()
			mHTTPPoolHits.Inc()
			return fc, true, nil
		}
	}
	t.mu.Unlock()
	mHTTPPoolMisses.Inc()
	addr := key
	if !strings.Contains(key, ":") {
		addr = key + ":80"
	}
	c, err := t.nw.Dial(ctx, t.sourceIP, addr)
	if err != nil {
		return nil, false, err
	}
	fc := &fastConn{c: c, key: key}
	fc.br.c = c
	fc.br.getBuf()
	fc.br.in = mHTTPBytesIn
	return fc, false, nil
}

// putIdle returns a healthy keep-alive connection to the pool, honoring
// the same caps as the stdlib transport it replaces: a host already at
// its cap drops the returned conn, and a full pool makes room by closing
// its least recently used conn.
func (t *fastTransport) putIdle(fc *fastConn) {
	t.mu.Lock()
	sameHost := 0
	for _, pooled := range t.idle {
		if pooled.key == fc.key {
			sameHost++
		}
	}
	if sameHost >= fastMaxIdlePerHost {
		t.mu.Unlock()
		fc.close()
		return
	}
	var evicted *fastConn
	if len(t.idle) >= fastMaxIdleTotal {
		evicted = t.idle[0]
		t.idle = slices.Delete(t.idle, 0, 1)
	}
	t.idle = append(t.idle, fc)
	t.mu.Unlock()
	if evicted != nil {
		evicted.close()
	}
}

// CloseIdleConnections closes every pooled connection, returning their
// read buffers to fastReadPool; conns in use are unaffected and pool
// again when their response is drained. http.Client.CloseIdleConnections
// finds this method by name.
func (t *fastTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, fc := range idle {
		fc.close()
	}
}

// exchange writes one serialized request and reads its response head.
// The returned bool reports whether the failure is safely retryable on
// a fresh connection: the peer vanished before yielding a single
// response byte.
func (t *fastTransport) exchange(fc *fastConn, head []byte, hdr http.Header, isHead bool) (respHead, bool, error) {
	if _, err := fc.c.Write(head); err != nil {
		return respHead{}, retryableErr(err), err
	}
	mHTTPBytesOut.Add(uint64(len(head)))
	return readRespHead(&fc.br, hdr, isHead)
}

// retryableErr reports whether an error means "peer gone" rather than
// deadline expiry or local cancellation.
func retryableErr(err error) bool {
	return errors.Is(err, errConnReset) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe)
}

// respHead is what a response head says about its body's framing.
type respHead struct {
	code          int
	minor         byte  // HTTP/1.minor
	contentLength int64 // -1 when the head has none
	keepAlive     bool
}

// hasBody reports whether a response with status code to a request that
// was not a HEAD carries a body: 1xx, 204 and 304 responses have none.
func hasBody(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}

// readRespHead parses one HTTP/1.x response head: the status line, then
// the header fields through the blank line. The fields that frame the
// body are read into the respHead; the others, and Content-Length, go
// into hdr when it is non-nil. Content-Length is the one body framing
// the client reads: a head with a Transfer-Encoding, or one whose
// response has a body (isHead says the request was a HEAD, whose
// response has none) but no Content-Length, is an error. The returned
// bool reports whether a failure is safely retryable, as exchange's
// does.
func readRespHead(br *connReader, hdr http.Header, isHead bool) (respHead, bool, error) {
	line, err := br.readLine()
	if err != nil {
		// Nothing buffered and the peer is gone: the reused conn was dead.
		return respHead{}, br.buffered() == 0 && retryableErr(err), err
	}
	// Status line: "HTTP/1.x NNN reason".
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[8] != ' ' {
		return respHead{}, false, fmt.Errorf("netsim: fast http: malformed status line %q", line)
	}
	rh := respHead{minor: line[7] - '0', contentLength: -1}
	if rh.minor > 1 {
		return respHead{}, false, fmt.Errorf("netsim: fast http: unsupported proto %q", line[:8])
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return respHead{}, false, fmt.Errorf("netsim: fast http: malformed status line %q", line)
		}
		rh.code = rh.code*10 + int(c-'0')
	}
	if rh.code < 100 {
		return respHead{}, false, fmt.Errorf("netsim: fast http: status code %d out of range", rh.code)
	}
	if len(line) > 12 && line[12] != ' ' {
		return respHead{}, false, fmt.Errorf("netsim: fast http: malformed status line %q", line)
	}

	rh.keepAlive = rh.minor == 1
	for {
		line, err = br.readLine()
		if err != nil {
			return respHead{}, false, fmt.Errorf("netsim: fast http: reading response header: %w", err)
		}
		if len(line) == 0 {
			if rh.contentLength < 0 && !isHead && hasBody(rh.code) {
				return respHead{}, false, fmt.Errorf("netsim: fast http: %d response has no Content-Length", rh.code)
			}
			return rh, false, nil
		}
		colon := indexByteFrom(line, 0, ':')
		if colon <= 0 {
			return respHead{}, false, fmt.Errorf("netsim: fast http: malformed response header %q", line)
		}
		kb, vb := line[:colon], trimOWS(line[colon+1:])
		switch {
		case asciiEqualFold(kb, "Content-Length"):
			n, perr := strconv.ParseInt(string(vb), 10, 64)
			if perr != nil || n < 0 {
				return respHead{}, false, fmt.Errorf("netsim: fast http: bad Content-Length %q", vb)
			}
			rh.contentLength = n
			if hdr != nil {
				hdr["Content-Length"] = []string{string(vb)}
			}
		case asciiEqualFold(kb, "Transfer-Encoding"):
			return respHead{}, false, fmt.Errorf("netsim: fast http: unsupported Transfer-Encoding %q: only Content-Length bodies are read", vb)
		case asciiEqualFold(kb, "Connection"):
			if asciiEqualFold(vb, "close") {
				rh.keepAlive = false
			} else if asciiEqualFold(vb, "keep-alive") {
				rh.keepAlive = true
			}
		default:
			if hdr != nil {
				key := canonicalKey(kb)
				hdr[key] = append(hdr[key], string(vb))
			}
		}
	}
}

// response builds the *http.Response for a parsed head whose other
// fields are in hdr; its Body returns fc to the pool when fully drained.
func (t *fastTransport) response(fc *fastConn, rh respHead, hdr http.Header, req *http.Request) *http.Response {
	resp := &http.Response{
		StatusCode: rh.code,
		Status:     strconv.Itoa(rh.code) + " " + http.StatusText(rh.code),
		Proto:      "HTTP/1." + string(rune('0'+rh.minor)),
		ProtoMajor: 1,
		ProtoMinor: int(rh.minor),
		Header:     hdr,
		Request:    req,
	}
	isHead := req.Method == http.MethodHead
	if isHead || hasBody(rh.code) {
		resp.ContentLength = rh.contentLength
	}
	body := &fastBody{t: t, fc: fc, keepAlive: rh.keepAlive}
	if !isHead && hasBody(rh.code) {
		body.remaining = rh.contentLength
	}
	resp.Body = body
	return resp
}

// trimOWS strips optional leading/trailing spaces and tabs.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// asciiEqualFold reports b == s ASCII-case-insensitively, allocation
// free.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		a, c := b[i], s[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if a != c {
			return false
		}
	}
	return true
}

// canonicalKey interns the response header keys the closed world
// actually sees, falling back to textproto canonicalization.
func canonicalKey(b []byte) string {
	switch string(b) { // compiler-recognized, no allocation
	case "Content-Type":
		return "Content-Type"
	case "Date":
		return "Date"
	case "Content-Length":
		return "Content-Length"
	case "Connection":
		return "Connection"
	case "X-Content-Type-Options":
		return "X-Content-Type-Options"
	}
	return textproto.CanonicalMIMEHeaderKey(string(b))
}

// appendRequestHead serializes the request line and headers, matching
// what the stdlib transport would have put on the wire for the same
// request (incl. its default User-Agent) so server logs are identical.
func appendRequestHead(b []byte, req *http.Request) []byte {
	b = append(b, req.Method...)
	b = append(b, ' ')
	b = appendTarget(b, req.URL)
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	b = appendHeadFields(b, host, req.Header)
	if req.Method == http.MethodPost {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, req.ContentLength, 10)
		b = append(b, '\r', '\n')
	}
	if req.Close {
		b = append(b, "Connection: close\r\n"...)
	}
	return append(b, '\r', '\n')
}

// appendTarget appends u's origin-form request target: the escaped path
// ("/" when empty) and the query.
func appendTarget(b []byte, u *url.URL) []byte {
	path := u.EscapedPath()
	if path == "" {
		path = "/"
	}
	b = append(b, path...)
	if u.ForceQuery || u.RawQuery != "" {
		b = append(b, '?')
		b = append(b, u.RawQuery...)
	}
	return b
}

// appendHeadFields ends the request line and appends the Host field, the
// User-Agent the stdlib transport would send and hdr's other fields; the
// framing fields are the caller's.
func appendHeadFields(b []byte, host string, hdr http.Header) []byte {
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, '\r', '\n')
	if ua, ok := hdr["User-Agent"]; !ok {
		b = append(b, "User-Agent: Go-http-client/1.1\r\n"...)
	} else if len(ua) > 0 && ua[0] != "" {
		b = append(b, "User-Agent: "...)
		b = append(b, ua[0]...)
		b = append(b, '\r', '\n')
	}
	for k, vs := range hdr {
		switch k {
		case "User-Agent", "Host", "Content-Length", "Connection", "Transfer-Encoding":
			continue
		}
		for _, v := range vs {
			b = append(b, k...)
			b = append(b, ':', ' ')
			b = append(b, v...)
			b = append(b, '\r', '\n')
		}
	}
	return b
}

// maxBodyBytes bounds how much of a response body Get reads.
const maxBodyBytes = 1 << 20

// Get fetches rawURL with a GET on client and reads the response body,
// up to its first 1 MiB. It is the tree's one GET-and-read: crawlers,
// probes and surveys all fetch through it. hdr is the request header as
// is — Get only reads it, so callers share one map across every request
// (nil sends Go's default User-Agent). A 3xx comes back as it is: no
// redirect is followed. A bound on the request rides on ctx. client must
// come from Network.HTTPClient and set none of Timeout, Jar and
// CheckRedirect, which Get could not honour; otherwise it fails before
// dialing.
//
// Get finds the URL's listener as Dial does, with the same errors,
// latency and ctx check. When ServeHTTP serves that listener, Get calls
// its handler in-process, with no conn, on the request ServeConn would
// parse from the wire, and keeps the status and body the handler wrote.
// Any other listener is fetched through RoundTrip, where a read error,
// a body cut short of its Content-Length included, returns the status
// with an empty body and the error: a truncated page never reads as a
// whole one.
func Get(ctx context.Context, client *http.Client, rawURL string, hdr http.Header) (int, string, error) {
	t, host, target, err := getTarget(client, rawURL)
	if err != nil {
		return 0, "", &url.Error{Op: "Get", URL: rawURL, Err: err}
	}
	name, port := host, "80"
	if strings.IndexByte(host, ':') >= 0 {
		name, port, err = net.SplitHostPort(host)
	}
	started := time.Now()
	var r route
	if err == nil {
		r, err = t.nw.route(ctx, name, port)
	}
	if err == nil && r.h == nil {
		return t.getWire(ctx, rawURL, hdr) // RoundTrip counts the request
	}
	mHTTPRequests.Inc()
	var status int
	var body string
	if err == nil {
		status, body, err = t.serveDirect(r.h, host, target, hdr)
	}
	if err != nil {
		return 0, "", &url.Error{Op: "Get", URL: rawURL, Err: err}
	}
	mHTTPLatency.ObserveSince(started)
	return status, body, nil
}

// getWire is Get through the transport's RoundTrip.
func (t *fastTransport) getWire(ctx context.Context, rawURL string, hdr http.Header) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return 0, "", err
	}
	req.Header = hdr
	resp, err := t.RoundTrip(req)
	if err != nil {
		return 0, "", &url.Error{Op: "Get", URL: rawURL, Err: err}
	}
	body, err := readBody(resp)
	if err != nil {
		return resp.StatusCode, "", fmt.Errorf("netsim: reading %s: %w", rawURL, err)
	}
	return resp.StatusCode, body, nil
}

// readBody reads resp's body, up to maxBodyBytes, and closes it, which
// pools its conn when the body ended cleanly. fastBody reports a body
// cut short of its Content-Length as io.ErrUnexpectedEOF.
func readBody(resp *http.Response) (string, error) {
	b := make([]byte, min(resp.ContentLength, maxBodyBytes))
	_, err := io.ReadFull(resp.Body, b)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	// b is not touched again, so the string may share its bytes.
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}

// directCall is the reused state of one in-process Get: the request
// handed to the handler and the writer that captures its response.
type directCall struct {
	req http.Request
	u   url.URL
	w   fastResponseWriter
}

var directPool = sync.Pool{New: func() any {
	return &directCall{w: fastResponseWriter{hdr: make(http.Header, 4), limit: maxBodyBytes}}
}}

// defaultUA is the User-Agent the transport sends when hdr has none.
var defaultUA = []string{"Go-http-client/1.1"}

// serveDirect calls h with the GET of target on host that ServeConn
// would parse from the head the transport writes for it, or refuses a
// target ServeConn would refuse, and returns the status and up to
// maxBodyBytes of the body h wrote. h reads hdr, never writes it.
func (t *fastTransport) serveDirect(h http.Handler, host, target string, hdr http.Header) (int, string, error) {
	if strings.IndexByte(target, ' ') >= 0 { // it would end the target early
		return 0, "", fmt.Errorf("netsim: fast http: unsupported request target %q", target)
	}
	if _, ok := hdr["User-Agent"]; !ok {
		hdr = hdr.Clone()
		if hdr == nil {
			hdr = make(http.Header, 1)
		}
		hdr["User-Agent"] = defaultUA
	}
	dc := directPool.Get().(*directCall)
	defer directPool.Put(dc)
	u, err := requestURL(target, &dc.u)
	if err != nil {
		return 0, "", fmt.Errorf("netsim: fast http: bad request target %q: %w", target, err)
	}
	dc.req = http.Request{Method: http.MethodGet, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: hdr, Body: http.NoBody, Host: host, RemoteAddr: t.remoteAddr, RequestURI: target}
	dc.w.reset(false)
	h.ServeHTTP(&dc.w, &dc.req)
	dc.w.clearHeader()
	body := ""
	if hasBody(dc.w.status) {
		body = string(dc.w.buf)
	}
	return dc.w.status, body, nil
}

// getTarget checks that Get can drive client's transport and returns it
// with rawURL's Host and request target. A plain "http://host/path" is
// split by hand; any other URL goes through url.Parse and checkURL.
func getTarget(client *http.Client, rawURL string) (t *fastTransport, host, target string, err error) {
	t, ok := client.Transport.(*fastTransport)
	switch {
	case !ok:
		return nil, "", "", fmt.Errorf("netsim: Get needs a Network.HTTPClient client, not transport %T", client.Transport)
	case client.Timeout != 0:
		return nil, "", "", errors.New("netsim: Get cannot honour http.Client.Timeout; bound the request with ctx")
	case client.Jar != nil || client.CheckRedirect != nil:
		return nil, "", "", errors.New("netsim: Get keeps no cookies and follows no redirects; the client must set no Jar or CheckRedirect")
	}
	if host, target, ok := splitPlainURL(rawURL); ok {
		return t, host, target, nil
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, "", "", err
	}
	if err := checkURL(u); err != nil {
		return nil, "", "", err
	}
	return t, u.Host, string(appendTarget(nil, u)), nil
}

// splitPlainURL returns the Host and request target that url.Parse and
// appendTarget would make of rawURL, without parsing, when rawURL is a
// plain "http://host[:port][/target]": a host of letters, digits, dots
// and dashes with an optional numeric port, and a target the server's
// splitOriginForm takes as is (so no '%', fragment or userinfo). It
// reports false for any other URL.
func splitPlainURL(rawURL string) (host, target string, ok bool) {
	rest, ok := strings.CutPrefix(rawURL, "http://")
	if !ok {
		return "", "", false
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		slash = len(rest)
	}
	host, target = rest[:slash], rest[slash:]
	if target == "" {
		target = "/"
	}
	if !plainHost(host) {
		return "", "", false
	}
	_, ok = splitOriginForm(target)
	return host, target, ok
}

// plainHost reports whether h is a non-empty name of letters, digits,
// dots and dashes, optionally followed by ':' and a non-empty decimal
// port: a host url.Parse keeps as is.
func plainHost(h string) bool {
	name, port, hasPort := strings.Cut(h, ":")
	if name == "" || (hasPort && port == "") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return false
		}
	}
	for i := 0; i < len(port); i++ {
		if c := port[i]; c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// connReader is a minimal buffered reader over one connection, used by
// both halves. Unlike bufio.Reader it exposes exactly what the framing
// needs — CRLF lines and counted reads — and its buffer is pool-recycled
// with the conn.
type connReader struct {
	c      net.Conn
	buf    []byte
	pooled *[]byte // buf's fastReadPool box, when it came from there
	r, w   int
	in     *obs.Counter // counts the bytes read when set (client conns only)
}

// getBuf takes the read buffer from fastReadPool; putBuf returns it.
func (cr *connReader) getBuf() {
	cr.pooled = fastReadPool.Get().(*[]byte)
	cr.buf = *cr.pooled
}

func (cr *connReader) putBuf() {
	if cr.pooled != nil {
		fastReadPool.Put(cr.pooled)
	}
	cr.pooled, cr.buf = nil, nil
}

func (cr *connReader) buffered() int { return cr.w - cr.r }

// fill compacts the buffer and reads more data; returns an error only
// when nothing could be read.
func (cr *connReader) fill() error {
	if cr.r > 0 {
		copy(cr.buf, cr.buf[cr.r:cr.w])
		cr.w -= cr.r
		cr.r = 0
	}
	if cr.w == len(cr.buf) {
		return errFastHeaderTooLong
	}
	n, err := cr.c.Read(cr.buf[cr.w:])
	cr.w += n
	if n > 0 {
		cr.count(n)
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

func (cr *connReader) count(n int) {
	if cr.in != nil && n > 0 {
		cr.in.Add(uint64(n))
	}
}

// readLine consumes and returns one CRLF- (or bare-LF-) terminated line,
// without its terminator. The returned slice aliases the buffer and is
// valid until the next read.
func (cr *connReader) readLine() ([]byte, error) {
	scanned := 0
	for {
		if i := indexByteFrom(cr.buf[cr.r:cr.w], scanned, '\n'); i >= 0 {
			line := cr.buf[cr.r : cr.r+i]
			cr.r += i + 1
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		}
		scanned = cr.w - cr.r
		if err := cr.fill(); err != nil {
			return nil, err
		}
	}
}

// indexByteFrom returns the index in b of the first c at or after from,
// or -1.
func indexByteFrom(b []byte, from int, c byte) int {
	if from < len(b) {
		if i := bytes.IndexByte(b[from:], c); i >= 0 {
			return from + i
		}
	}
	return -1
}

// Read drains buffered bytes first, then reads straight from the conn
// (bypassing the buffer for large reads).
func (cr *connReader) Read(p []byte) (int, error) {
	if cr.r < cr.w {
		n := copy(p, cr.buf[cr.r:cr.w])
		cr.r += n
		return n, nil
	}
	if len(p) >= len(cr.buf) {
		n, err := cr.c.Read(p)
		cr.count(n)
		return n, err
	}
	if err := cr.fill(); err != nil {
		return 0, err
	}
	n := copy(p, cr.buf[cr.r:cr.w])
	cr.r += n
	return n, nil
}

// discard consumes and drops n bytes.
func (cr *connReader) discard(n int64) error {
	for n > 0 {
		if have := int64(cr.buffered()); have > 0 {
			if have > n {
				have = n
			}
			cr.r += int(have)
			n -= have
			continue
		}
		if err := cr.fill(); err != nil {
			return err
		}
	}
	return nil
}

// fastBody is a response body of known length; when the caller drains
// and closes it, the underlying connection goes back to the idle pool
// (the keep-alive contract), otherwise the conn is closed.
type fastBody struct {
	t         *fastTransport
	fc        *fastConn
	remaining int64 // body bytes not yet read; 0 once the body is done
	keepAlive bool
	closed    bool
	err       error
}

func (fb *fastBody) Read(p []byte) (int, error) {
	if fb.closed {
		return 0, errors.New("netsim: fast http: read on closed response body")
	}
	if fb.err != nil {
		return 0, fb.err
	}
	if fb.remaining == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > fb.remaining {
		p = p[:fb.remaining]
	}
	n, err := fb.fc.br.Read(p)
	fb.remaining -= int64(n)
	if err == io.EOF && fb.remaining > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil && err != io.EOF {
		fb.err = err
	}
	return n, err
}

// maxDrainBytes bounds how much of an abandoned body Close will consume
// to rescue the connection for reuse.
const maxDrainBytes = 256 << 10

// Close releases the connection: back to the idle pool when the body was
// fully drained on a keep-alive response, closed otherwise. Closing
// without draining a small remainder finishes the drain first, like the
// stdlib transport's bodyEOFSignal does, so sequential requests keep
// their pooled conn even when a caller skips the tail of a body.
func (fb *fastBody) Close() error {
	if fb.closed {
		return nil
	}
	fb.closed = true
	if fb.remaining > 0 && fb.remaining <= maxDrainBytes && fb.err == nil && fb.keepAlive {
		if fb.err = fb.fc.br.discard(fb.remaining); fb.err == nil {
			fb.remaining = 0
		}
	}
	if fb.remaining == 0 && fb.err == nil && fb.keepAlive {
		fb.t.putIdle(fb.fc)
	} else {
		fb.fc.close()
	}
	return nil
}

var (
	_ http.RoundTripper = (*fastTransport)(nil)
	_ io.ReadCloser     = (*fastBody)(nil)
)
