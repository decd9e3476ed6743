package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HTTP inside the network is one in-process call. Handle binds a
// handler at an address, and every request an HTTPClient sends — Get's
// and client.Do's — resolves and finds that address as Dial does, then
// calls the handler with the request a server would read off the wire,
// from the client's source IP. No request or response is framed in
// bytes: the paper's questions read only what a site served and logged.

// transport is the http.RoundTripper of every Network.HTTPClient.
type transport struct {
	nw         *Network
	remoteAddr string // the RemoteAddr handlers see
}

func newTransport(nw *Network, sourceIP string) *transport {
	addr := &net.TCPAddr{IP: net.ParseIP(sourceIP), Port: nw.ephemeralPort()}
	return &transport{nw: nw, remoteAddr: addr.String()}
}

// checkRequest returns an error naming what req asks for outside the
// requests the client sends — GET, HEAD and POST with a known body
// length, to http:// URLs — or nil when it fits.
func checkRequest(req *http.Request) error {
	if req.URL == nil {
		return errors.New("netsim: http: request has no URL")
	}
	if err := checkURL(req.URL); err != nil {
		return err
	}
	switch {
	case len(req.TransferEncoding) > 0:
		return fmt.Errorf("netsim: http: unsupported transfer encoding %q", req.TransferEncoding)
	case len(req.Trailer) > 0:
		return errors.New("netsim: http: unsupported request trailers")
	}
	hasBody := req.Body != nil && req.Body != http.NoBody
	switch req.Method {
	case http.MethodGet, http.MethodHead:
		if hasBody && req.ContentLength != 0 {
			return fmt.Errorf("netsim: http: unsupported %s request body", req.Method)
		}
	case http.MethodPost:
		if req.ContentLength < 0 || (hasBody && req.ContentLength == 0) {
			return errors.New("netsim: http: unsupported POST body of unknown length")
		}
	default:
		return fmt.Errorf("netsim: http: unsupported method %q", req.Method)
	}
	return nil
}

// checkURL returns an error unless u is an http:// URL with a host and
// no userinfo.
func checkURL(u *url.URL) error {
	switch {
	case u.Scheme != "http":
		return fmt.Errorf("netsim: http: unsupported scheme %q", u.Scheme)
	case u.Host == "" || u.Opaque != "" || u.User != nil:
		return fmt.Errorf("netsim: http: unsupported URL %q", u.Redacted())
	}
	return nil
}

// RoundTrip implements http.RoundTripper. It routes req as Get does, by
// its URL's host, and calls the handler bound at the address with req's
// ctx, method, target, Host, header and body. A request whose ctx ends
// before the handler returns fails with ctx's error; a request to a
// listener fails.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.roundTrip(req)
	if req.Body != nil {
		req.Body.Close()
	}
	return resp, err
}

func (t *transport) roundTrip(req *http.Request) (*http.Response, error) {
	if err := checkRequest(req); err != nil {
		return nil, err
	}
	h, err := t.nw.handler(req.Context(), req.URL.Host)
	if err != nil {
		return nil, err
	}
	mHTTPRequests.Inc()
	return t.do(h, req)
}

// do calls h with the request a server reads off the wire for req,
// under req's ctx and with req's body, and returns what h wrote.
func (t *transport) do(h http.Handler, req *http.Request) (*http.Response, error) {
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	ctx := req.Context()
	x := &exchange{w: responseWriter{hdr: make(http.Header, 4), limit: math.MaxInt}}
	if err := t.request(ctx, &x.req, &x.u, req.Method, host, req.URL.RequestURI(), req.Header); err != nil {
		return nil, err
	}
	if req.Body != nil && req.Body != http.NoBody {
		x.req.Body, x.req.ContentLength = req.Body, req.ContentLength
	}
	x.w.reset(req.Method == http.MethodHead)
	if err := x.serve(ctx, h); err != nil {
		return nil, err
	}
	return x.response(req), nil
}

// exchange is one in-process request: the request handed to the
// handler, the writer that captures its response and, for client.Do,
// the response made of it — one allocation, or none from Get's pool.
type exchange struct {
	req  http.Request
	u    url.URL
	w    responseWriter
	resp http.Response
	body bodyReader
}

// serve calls h with x.req, whose ctx is ctx, and returns ctx's error
// if ctx ended before h returned. A deadline that has passed counts as
// ended even before ctx's timer fires, so a handler that gave up at the
// deadline — on a conn deadline armed from ctx — fails the request.
func (x *exchange) serve(ctx context.Context, h http.Handler) error {
	h.ServeHTTP(&x.w, &x.req)
	select {
	case <-ctx.Done(): // no lock once Done has been made, unlike Err
		return ctx.Err()
	default:
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// handler resolves host ("name" or "name:port", port 80 by default) and
// returns the handler bound to its address, with route's errors and
// ctx check.
func (n *Network) handler(ctx context.Context, host string) (http.Handler, error) {
	name, port := host, "80"
	if strings.IndexByte(host, ':') >= 0 {
		var err error
		if name, port, err = net.SplitHostPort(host); err != nil {
			return nil, err
		}
	}
	r, err := n.route(ctx, name, port)
	if err != nil {
		return nil, err
	}
	if r.h == nil {
		return nil, fmt.Errorf("netsim: http: no handler serves %s", appendAddr(nil, r.ip, r.port))
	}
	return r.h, nil
}

// request fills sr with the request of method to target on host, with
// header hdr, that a server reads off the wire for it — the Host a
// stock client sends, the request URI parsed as a server parses it, the
// client's default User-Agent when hdr has none, no body — under ctx,
// or refuses a target a server would refuse. u holds the parsed URL
// when the target is a plain split. The handler reads hdr, never writes
// it.
func (t *transport) request(ctx context.Context, sr *http.Request, u *url.URL, method, host, target string, hdr http.Header) error {
	if strings.IndexByte(target, ' ') >= 0 { // it would end the target early
		return fmt.Errorf("netsim: http: unsupported request target %q", target)
	}
	pu, err := requestURL(target, u)
	if err != nil {
		return fmt.Errorf("netsim: http: bad request target %q: %w", target, err)
	}
	if _, ok := hdr["User-Agent"]; !ok {
		if len(hdr) == 0 {
			hdr = defaultHeader
		} else {
			hdr = hdr.Clone()
			hdr["User-Agent"] = defaultHeader["User-Agent"]
		}
	}
	r := http.Request{Method: method, URL: pu, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: hdr, Body: http.NoBody, Host: hostHeader(host), RemoteAddr: t.remoteAddr, RequestURI: target}
	*sr = *r.WithContext(ctx)
	return nil
}

// defaultHeader is the header a stock client sends for a request that
// sets none: its default User-Agent. Handlers read it, never write it.
var defaultHeader = http.Header{"User-Agent": {"Go-http-client/1.1"}}

// hostHeader returns the Host a stock client sends for host: without an
// IPv6 zone, and empty when a byte of it is not valid in the field.
func hostHeader(host string) string {
	for i := 0; i < len(host); i++ {
		switch c := host[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.', c == '-', c == ':', c == '[', c == ']', c == '%', c == '_', c == '~',
			c == '!', c == '$', c == '&', c == '\'', c == '(', c == ')', c == '*', c == '+', c == ',', c == ';', c == '=':
		default:
			return ""
		}
	}
	if strings.HasPrefix(host, "[") {
		if i := strings.LastIndexByte(host, ']'); i >= 0 {
			if j := strings.LastIndexByte(host[:i], '%'); j >= 0 {
				return host[:j] + host[i:]
			}
		}
	}
	return host
}

// maxBodyBytes bounds how much of a response body Get reads.
const maxBodyBytes = 1 << 20

// Get fetches target on host with a GET on client and reads the
// response body, up to its first 1 MiB. It is the tree's one
// GET-and-read: crawlers, probes and surveys all fetch through it. host
// is "name" or "name:port" (port 80 by default); target is an escaped
// origin-form request target such as "/robots.txt", as a stock client
// sends it on the request line (SplitURL makes both of a URL). hdr is
// the request header as is — Get and the handler only read it, so
// callers share one map across every request (nil sends Go's default
// User-Agent). A 3xx comes back as it is: no redirect is followed. A
// bound on the request rides on ctx. client must come from
// Network.HTTPClient and set none of Timeout, Jar and CheckRedirect,
// which Get could not honour; otherwise it fails before routing. An
// error reads as client.Get's for "http://"+host+target.
//
// Get is client.Do of the GET with less garbage: it finds the host's
// handler as RoundTrip does, with the same errors and ctx check, calls
// it in-process on the same request, with a pooled request and writer,
// and keeps the status and body the handler wrote. A body the handler
// wrote with one WriteString comes back as that string, uncopied.
func Get(ctx context.Context, client *http.Client, host, target string, hdr http.Header) (int, string, error) {
	status, body, err := get(ctx, client, host, target, hdr)
	if err != nil {
		return 0, "", &url.Error{Op: "Get", URL: "http://" + host + target, Err: err}
	}
	return status, body, nil
}

func get(ctx context.Context, client *http.Client, host, target string, hdr http.Header) (int, string, error) {
	t, ok := client.Transport.(*transport)
	switch {
	case !ok:
		return 0, "", fmt.Errorf("netsim: Get needs a Network.HTTPClient client, not transport %T", client.Transport)
	case client.Timeout != 0:
		return 0, "", errors.New("netsim: Get cannot honour http.Client.Timeout; bound the request with ctx")
	case client.Jar != nil || client.CheckRedirect != nil:
		return 0, "", errors.New("netsim: Get keeps no cookies and follows no redirects; the client must set no Jar or CheckRedirect")
	}
	h, err := t.nw.handler(ctx, host)
	if err != nil {
		return 0, "", err
	}
	mHTTPRequests.Inc()
	return t.serveGet(ctx, h, host, target, hdr)
}

var getPool = sync.Pool{New: func() any {
	return &exchange{w: responseWriter{hdr: make(http.Header, 4), kept: make(http.Header, 1), limit: maxBodyBytes}}
}}

// serveGet calls h with the GET of target on host, under ctx, and
// returns the status and up to maxBodyBytes of the body h wrote.
func (t *transport) serveGet(ctx context.Context, h http.Handler, host, target string, hdr http.Header) (int, string, error) {
	x := getPool.Get().(*exchange)
	defer getPool.Put(x)
	if err := t.request(ctx, &x.req, &x.u, http.MethodGet, host, target, hdr); err != nil {
		return 0, "", err
	}
	x.w.reset(false)
	err := x.serve(ctx, h)
	clear(x.w.hdr) // SetHeader's slices live on in x.w.kept
	if err != nil {
		return 0, "", err
	}
	body := ""
	if hasBody(x.w.status) {
		body = x.w.body()
	}
	return x.w.status, body, nil
}

// SplitURL returns the host and request target of u that Get takes for
// a stock client's GET of u: an empty port is dropped, as
// http.NewRequest drops it, and the target is u.RequestURI(). It refuses
// what the client refuses — any URL but an http:// one with a host and
// no userinfo — with RoundTrip's error.
func SplitURL(u *url.URL) (host, target string, err error) {
	v := *u
	if strings.LastIndexByte(v.Host, ':') > strings.LastIndexByte(v.Host, ']') {
		v.Host = strings.TrimSuffix(v.Host, ":")
	}
	if err := checkURL(&v); err != nil {
		return "", "", err
	}
	return v.Host, v.RequestURI(), nil
}

// PlainPath reports whether p is an origin-form target that a stock
// client sends as is: a '/' and then only bytes a URL path keeps
// verbatim, so url.URL{Path: p}.RequestURI() is p.
func PlainPath(p string) bool {
	_, ok := splitOriginForm(p)
	return ok && strings.IndexByte(p, '?') < 0
}

// requestURL returns the URL of a request target: a plain origin-form
// target is split by hand into *u, anything else parsed by net/url.
func requestURL(target string, u *url.URL) (*url.URL, error) {
	if v, ok := splitOriginForm(target); ok {
		*u = v
		return u, nil
	}
	return url.ParseRequestURI(target)
}

// splitOriginForm returns the URL url.ParseRequestURI would make of an
// origin-form target, without parsing, when that URL is a plain split:
// the path before the first '?' holds only bytes that need no escaping
// (so no '%' to decode and no RawPath to keep), and the rest holds no
// '#' or control byte. It reports false for any other target.
func splitOriginForm(target string) (url.URL, bool) {
	if len(target) == 0 || target[0] != '/' {
		return url.URL{}, false
	}
	q := len(target)
	for i := 0; i < len(target); i++ {
		c := target[i]
		if c == '?' {
			q = i
			break
		}
		if !pathByteVerbatim(c) {
			return url.URL{}, false
		}
	}
	for i := q + 1; i < len(target); i++ {
		if c := target[i]; c < 0x20 || c == 0x7f || c == '#' {
			return url.URL{}, false
		}
	}
	u := url.URL{Path: target[:q]}
	switch {
	case q == len(target)-1:
		u.ForceQuery = true // a lone trailing '?'
	case q < len(target):
		u.RawQuery = target[q+1:]
	}
	return u, true
}

// pathByteVerbatim reports whether net/url keeps c as is in a path, both
// unescaping and re-escaping it.
func pathByteVerbatim(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	switch c {
	case '-', '_', '.', '~', '$', '&', '+', ',', '/', ':', ';', '=', '@':
		return true
	}
	return false
}

// hasBody reports whether a response with status code to a request that
// was not a HEAD carries a body: 1xx, 204 and 304 responses have none.
func hasBody(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}

// responseWriter implements http.ResponseWriter (and io.StringWriter,
// which io.WriteString uses) over a buffer that keeps the status, the
// header and up to limit bytes of the body a handler writes.
//
// A body written by one WriteString is kept as that string, not copied:
// Get returns it as the handler wrote it. That is safe because a Go
// string is immutable; a handler that wrote an unsafe.String over bytes
// it later changed would change the body Get returned, and no handler in
// the tree writes one.
type responseWriter struct {
	hdr         http.Header
	status      int
	wroteHeader bool
	isHead      bool
	buf         []byte // accumulated body bytes (suppressed for HEAD)
	// str is the body while it is one string: the first WriteString into
	// an empty body, capped at limit. Any later write spills it into buf.
	str   string
	headN int // HEAD: bytes the handler "wrote"
	// limit is the most body bytes buf keeps; a write past it still
	// reports every byte written.
	limit int
	// kept holds the one-value slices SetHeader made, by key, on a writer
	// Get reuses (nil on any other). They are the writer's own: SetHeader
	// made them, and no caller handed one in.
	kept http.Header
}

// reset readies w for the next response. The header map needs nothing:
// serveGet cleared it after the last one.
func (w *responseWriter) reset(isHead bool) {
	w.status = http.StatusOK
	w.wroteHeader = false
	w.isHead = isHead
	w.buf = w.buf[:0]
	w.str = ""
	w.headN = 0
}

// Header implements http.ResponseWriter.
func (w *responseWriter) Header() http.Header { return w.hdr }

// SetHeader sets w's header key, which must be in canonical form, to
// the single value v, as w.Header().Set(key, v) does. On the writer Get
// hands its handler, it stores v in a one-value slice the writer made
// for key on an earlier Get, so a farm's pages set the key without
// allocating; on any other writer it is w.Header().Set.
func SetHeader(w http.ResponseWriter, key, v string) {
	rw, ok := w.(*responseWriter)
	if !ok || rw.kept == nil {
		w.Header().Set(key, v)
		return
	}
	vs := rw.kept[key]
	if vs == nil {
		vs = make([]string, 1)
		rw.kept[key] = vs
	}
	vs[0] = v
	rw.hdr[key] = vs
}

// WriteHeader implements http.ResponseWriter.
func (w *responseWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.status = code
	w.wroteHeader = true
}

// Write implements http.ResponseWriter.
func (w *responseWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	if w.isHead {
		w.headN += len(p)
		return len(p), nil
	}
	w.spill()
	w.buf = append(w.buf, p[:min(len(p), w.limit-len(w.buf))]...)
	return len(p), nil
}

// WriteString implements io.StringWriter. The first string written into
// an empty body is kept as is, in str.
func (w *responseWriter) WriteString(s string) (int, error) {
	w.wroteHeader = true
	if w.isHead {
		w.headN += len(s)
		return len(s), nil
	}
	if len(w.buf) == 0 && w.str == "" {
		w.str = s[:min(len(s), w.limit)]
		return len(s), nil
	}
	w.spill()
	w.buf = append(w.buf, s[:min(len(s), w.limit-len(w.buf))]...)
	return len(s), nil
}

// spill moves a body kept in str into buf, so that buf holds it all.
func (w *responseWriter) spill() {
	w.buf = append(w.buf, w.str...)
	w.str = ""
}

// body returns the body w holds: str when it is the whole body, without
// a copy, and otherwise a copy of buf.
func (w *responseWriter) body() string {
	if len(w.buf) == 0 {
		return w.str
	}
	return string(w.buf)
}

// response returns what x.w holds as the response to req. The body is
// framed by its computed length, resp.ContentLength: a handler's own
// Content-Length and Transfer-Encoding are dropped. A response to a HEAD
// has no body and the length the handler wrote; a 1xx, 204 or 304 has
// neither.
func (x *exchange) response(req *http.Request) *http.Response {
	w := &x.w
	w.spill()
	delete(w.hdr, "Content-Length")
	delete(w.hdr, "Transfer-Encoding")
	x.resp = http.Response{
		StatusCode: w.status,
		Status:     strconv.Itoa(w.status) + " " + http.StatusText(w.status),
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     w.hdr,
		Body:       &x.body,
		Request:    req,
	}
	var body []byte
	switch {
	case !hasBody(w.status):
	case w.isHead:
		x.resp.ContentLength = int64(w.headN)
	default:
		body = w.buf
		x.resp.ContentLength = int64(len(body))
	}
	x.body.Reset(body)
	return &x.resp
}

// bodyReader is a response body held whole in memory.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

var (
	_ http.RoundTripper   = (*transport)(nil)
	_ http.ResponseWriter = (*responseWriter)(nil)
)
