package netsim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"sync"
)

// The server half of the netsim-native HTTP/1.1 framing (fasthttp.go is
// the client half, and the rationale): per-connection reused
// request/header/URL structures, an interning table that keeps retained
// strings off the reused read buffer, and a pooled response buffer
// flushed in a single ring write. Handlers see the plain
// http.ResponseWriter + *http.Request surface, so a stock http.Server
// can drive the same handler — which is how the differential tests
// check this framing against net/http. Serve runs it behind a listener,
// as http.Server.Serve does.

const (
	srvMaxHeaders  = 64      // header count bound per request
	srvMaxBody     = 8 << 20 // largest request body the server accepts
	srvMaxInterned = 512     // per-connection intern table bound
)

var errSrvTooManyHdrs = errors.New("netsim: fast server: too many header lines")

// srvRespPool recycles response buffers. It is not the client's
// fastHeadPool: a response buffer grows to hold its body, and kept apart
// those grown buffers come back to the next response instead of the
// client's small request heads.
var srvRespPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Serve accepts connections on ln and runs serve on each, on its own
// goroutine; serve owns the connection and closes it before returning.
// When Accept fails — ln was closed — Serve closes every live
// connection, waits for their serve calls to return, as
// http.Server.Close does, and returns the accept error. Every netsim
// server runs on it: HTTP through ServeHTTP and policyd's frame
// listeners.
func Serve(ln net.Listener, serve func(net.Conn)) error {
	var (
		mu      sync.Mutex
		live    = make(map[net.Conn]struct{})
		serving sync.WaitGroup
	)
	for {
		c, err := ln.Accept()
		if err != nil {
			mu.Lock()
			for c := range live {
				c.Close()
			}
			mu.Unlock()
			serving.Wait()
			return err
		}
		mu.Lock()
		live[c] = struct{}{}
		mu.Unlock()
		serving.Add(1)
		go func() {
			defer serving.Done()
			serve(c)
			mu.Lock()
			delete(live, c)
			mu.Unlock()
		}()
	}
}

// ServeHTTP records h on ln, when ln is a netsim listener, so that Get
// calls h in-process for every URL that lands on ln — from the moment
// ServeHTTP returns — and serves each connection ln accepts with
// ServeConn(c, h) through Serve, on a goroutine of its own. wait blocks
// until ln is closed and Serve has returned, and returns its error.
func ServeHTTP(ln net.Listener, h http.Handler) (wait func() error) {
	if l, ok := ln.(*listener); ok {
		l.network.mu.Lock()
		l.handler = h
		l.network.mu.Unlock()
	}
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = Serve(ln, func(c net.Conn) { ServeConn(c, h) })
	}()
	return func() error {
		<-done
		return err
	}
}

// ServeConn serves HTTP/1.1 requests read from c with h, one at a time
// on the calling goroutine, until the peer hangs up, a response closes
// the connection or framing breaks; then it closes c. It returns nil
// after a response that closed the connection, and otherwise the error
// that ended it (io.EOF once the peer hangs up).
//
// The framing covers what netsim traffic sends: any method, origin-form
// or absolute targets, Content-Length request bodies, keep-alive by
// protocol version and Connection header. Responses always carry a
// computed Content-Length. h may read r.Body, which yields the declared
// Content-Length bytes straight off the connection; whatever it leaves
// unread is discarded before the response is written, so a client
// blocked writing a large body into the 32 KiB ring is always drained
// before it has to read. r.Context() is context.Background(): nothing
// cancels it, so a handler does not learn that the peer hung up. The
// *http.Request, its URL, Header and Body are reused for the
// connection's next request, so h must not keep them after it returns;
// the strings they hold (method, target, header values) are safe to
// keep.
func ServeConn(c net.Conn, h http.Handler) error {
	st := newServerConn(c)
	defer func() {
		c.Close()
		st.release()
	}()
	for {
		if err := st.readRequest(); err != nil {
			return err
		}
		st.w.reset(st.req.Method == http.MethodHead)
		h.ServeHTTP(&st.w, &st.req)
		if st.body.n > 0 {
			if err := st.rd.discard(st.body.n); err != nil {
				return err
			}
			st.body.n = 0
		}
		if err := st.w.finish(c, st.closeAfter); err != nil {
			return err
		}
		if st.closeAfter {
			return nil
		}
	}
}

// serverConn is one connection's reused parsing state. Every string
// that outlives a request (log records keep Path and User-Agent) is
// interned, never aliased to the reused read buffer.
type serverConn struct {
	rd         connReader
	req        http.Request
	u          url.URL
	hdr        http.Header
	set        []setKey // the keys the last parse put values under
	body       serverBody
	strs       map[string]string
	w          fastResponseWriter
	closeAfter bool
}

// setKey is a header key the parser set, with the value slice it
// appended to.
type setKey struct {
	key  string
	vals []string
}

// serverBody is the current request's Content-Length body, read from
// the connection's reader; n counts the bytes not yet read.
type serverBody struct {
	rd *connReader
	n  int64
}

func (b *serverBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.rd.Read(p)
	b.n -= int64(n)
	if err == io.EOF && b.n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *serverBody) Close() error { return nil }

func newServerConn(c net.Conn) *serverConn {
	st := &serverConn{
		hdr:  make(http.Header, 8),
		strs: make(map[string]string, 16),
	}
	st.rd.c = c
	st.rd.getBuf()
	st.body.rd = &st.rd
	st.w.hdr = make(http.Header, 4)
	st.w.limit = math.MaxInt
	st.w.pooled = srvRespPool.Get().(*[]byte)
	st.w.buf = (*st.w.pooled)[:0]
	st.req.Header = st.hdr
	st.req.Proto = "HTTP/1.1"
	st.req.ProtoMajor, st.req.ProtoMinor = 1, 1
	st.req.RemoteAddr = c.RemoteAddr().String()
	st.req.Body = http.NoBody
	return st
}

func (st *serverConn) release() {
	st.rd.putBuf()
	*st.w.pooled = st.w.buf[:0] // keep what the body grew it to
	srvRespPool.Put(st.w.pooled)
	st.w.pooled, st.w.buf = nil, nil
}

// intern returns a stable string equal to b. The per-connection table is
// bounded; once full, rare new strings fall back to a plain copy.
func (st *serverConn) intern(b []byte) string {
	if s, ok := st.strs[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	if len(st.strs) < srvMaxInterned {
		st.strs[s] = s
	}
	return s
}

// readRequest parses one request head into the reused request struct
// and points its Body at the declared Content-Length bytes.
func (st *serverConn) readRequest() error {
	line, err := st.rd.readLine()
	if err != nil {
		return err
	}
	// Request line: METHOD SP TARGET SP HTTP/1.x
	sp1 := indexByteFrom(line, 0, ' ')
	if sp1 <= 0 {
		return fmt.Errorf("netsim: fast server: malformed request line %q", line)
	}
	sp2 := indexByteFrom(line, sp1+1, ' ')
	if sp2 < 0 || sp2 == sp1+1 {
		return fmt.Errorf("netsim: fast server: malformed request line %q", line)
	}
	methodB, targetB, protoB := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	var keepAlive bool
	switch {
	case string(protoB) == "HTTP/1.1":
		keepAlive = true
	case string(protoB) == "HTTP/1.0":
		keepAlive = false
	default:
		return fmt.Errorf("netsim: fast server: unsupported proto %q", protoB)
	}
	method := st.intern(methodB)

	// Reset per-request state. Truncating (not deleting) header values
	// keeps each key's []string backing allocated across requests;
	// Header.Get on a truncated key sees "", exactly like an absent key.
	// The keys the last parse set are truncated by name. If the map then
	// holds no more keys than those, they are all its keys; any other
	// key — one a handler added, or one an earlier request sent — needs
	// the whole walk.
	for _, kv := range st.set {
		st.hdr[kv.key] = kv.vals[:0]
	}
	if len(st.hdr) != len(st.set) {
		for k, v := range st.hdr {
			if len(v) > 0 {
				st.hdr[k] = v[:0]
			}
		}
	}
	st.set = st.set[:0]
	st.req.Header = st.hdr
	st.req.Method = method
	st.req.Host = ""
	st.req.ContentLength = 0
	st.req.Body = http.NoBody
	st.closeAfter = !keepAlive

	// Headers. Reading them reuses the buffer the request line sat in, so
	// the target is interned first.
	target := st.intern(targetB)
	var contentLength int64
	chunked := false
	for n := 0; ; n++ {
		if n > srvMaxHeaders {
			return errSrvTooManyHdrs
		}
		line, err = st.rd.readLine()
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		colon := indexByteFrom(line, 0, ':')
		if colon <= 0 {
			return fmt.Errorf("netsim: fast server: malformed header %q", line)
		}
		kb, vb := line[:colon], trimOWS(line[colon+1:])
		val := st.intern(vb)
		switch {
		case asciiEqualFold(kb, "Host"):
			st.req.Host = val
		case asciiEqualFold(kb, "Content-Length"):
			cl, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil || cl < 0 {
				return fmt.Errorf("netsim: fast server: bad Content-Length %q", val)
			}
			contentLength = cl
		case asciiEqualFold(kb, "Connection"):
			if asciiEqualFold(vb, "close") {
				st.closeAfter = true
			} else if asciiEqualFold(vb, "keep-alive") {
				st.closeAfter = false
			}
			continue // not surfaced in the header map, like stdlib
		case asciiEqualFold(kb, "Transfer-Encoding"):
			chunked = true
			continue
		}
		key := st.headerKey(kb)
		vals := append(st.hdr[key], val)
		if len(vals) == 1 { // every key is truncated above
			st.set = append(st.set, setKey{key, vals})
		}
		st.hdr[key] = vals
	}
	if chunked {
		return errors.New("netsim: fast server: chunked request bodies unsupported")
	}
	if st.req.Host == "" && keepAlive {
		// HTTP/1.1 requires Host; 1.0 requests may omit it.
		return errors.New("netsim: fast server: missing Host header")
	}
	st.req.ContentLength = contentLength

	u, err := requestURL(target, &st.u)
	if err != nil {
		return fmt.Errorf("netsim: fast server: bad request target %q: %w", target, err)
	}
	st.req.URL = u
	st.req.RequestURI = target

	if contentLength > 0 {
		if contentLength > srvMaxBody {
			return fmt.Errorf("netsim: fast server: request body of %d bytes exceeds limit", contentLength)
		}
		st.body.n = contentLength
		st.req.Body = &st.body
	}
	return nil
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

// headerKey converts a header key to its canonical form, interning the
// already-canonical common case without allocation.
func (st *serverConn) headerKey(b []byte) string {
	if isCanonicalKey(b) {
		return st.intern(b)
	}
	return textproto.CanonicalMIMEHeaderKey(string(b))
}

// isCanonicalKey reports whether b is already in canonical MIME form
// (uppercase after dashes, lowercase elsewhere, token chars only).
func isCanonicalKey(b []byte) bool {
	upper := true
	for _, c := range b {
		switch {
		case c >= 'A' && c <= 'Z':
			if !upper {
				return false
			}
		case c >= 'a' && c <= 'z':
			if upper {
				return false
			}
		case c >= '0' && c <= '9', c == '-':
		default:
			return false
		}
		upper = c == '-'
	}
	return true
}

// fastResponseWriter implements http.ResponseWriter (and io.StringWriter,
// which io.WriteString uses) over a reused buffer; finish
// frames the response with the computed Content-Length and flushes it in
// at most one ring write.
type fastResponseWriter struct {
	hdr         http.Header
	status      int
	wroteHeader bool
	isHead      bool
	buf         []byte  // accumulated body bytes (suppressed for HEAD)
	pooled      *[]byte // buf's srvRespPool box
	headN       int     // HEAD: bytes the handler "wrote"
	// limit is the most body bytes buf keeps; a write past it still
	// reports every byte written.
	limit int
	// kept holds the one-value slices SetHeader made, by key. They are
	// the writer's own: SetHeader made them, and no caller handed one in.
	kept http.Header
}

// reset readies w for the next response. The header map needs nothing:
// clearHeader truncated every key after the last one.
func (w *fastResponseWriter) reset(isHead bool) {
	w.status = http.StatusOK
	w.wroteHeader = false
	w.isHead = isHead
	w.buf = w.buf[:0]
	w.headN = 0
}

// Header implements http.ResponseWriter.
func (w *fastResponseWriter) Header() http.Header { return w.hdr }

// SetHeader sets w's header key, which must be in canonical form, to
// the single value v, as w.Header().Set(key, v) does. On the writer
// ServeConn hands its handler, it stores v in a one-value slice the
// writer made for key on an earlier response of the conn, so a
// keep-alive conn's responses set the key without allocating; on any
// other writer it is w.Header().Set.
func SetHeader(w http.ResponseWriter, key, v string) {
	fw, ok := w.(*fastResponseWriter)
	if !ok {
		w.Header().Set(key, v)
		return
	}
	vs := fw.kept[key]
	if vs == nil {
		if fw.kept == nil {
			fw.kept = make(http.Header, 1)
		}
		vs = make([]string, 1)
		fw.kept[key] = vs
	}
	vs[0] = v
	fw.hdr[key] = vs
}

// WriteHeader implements http.ResponseWriter.
func (w *fastResponseWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.status = code
	w.wroteHeader = true
}

// Write implements http.ResponseWriter.
func (w *fastResponseWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	if w.isHead {
		w.headN += len(p)
		return len(p), nil
	}
	w.buf = append(w.buf, p[:min(len(p), w.limit-len(w.buf))]...)
	return len(p), nil
}

// WriteString implements io.StringWriter, keeping string bodies off the
// []byte conversion path.
func (w *fastResponseWriter) WriteString(s string) (int, error) {
	w.wroteHeader = true
	if w.isHead {
		w.headN += len(s)
		return len(s), nil
	}
	w.buf = append(w.buf, s[:min(len(s), w.limit-len(w.buf))]...)
	return len(s), nil
}

// clearHeader truncates every header value the handler set, keeping
// each key's backing for the next response.
func (w *fastResponseWriter) clearHeader() {
	for k, vs := range w.hdr {
		if len(vs) > 0 {
			w.hdr[k] = vs[:0]
		}
	}
}

// finish frames and flushes the buffered response. The head is built in
// a pooled scratch buffer; when head + body fit one buffer they go out
// in a single conn write. A handler's Content-Length and
// Transfer-Encoding are dropped: the response carries the computed
// Content-Length alone.
func (w *fastResponseWriter) finish(c net.Conn, closeAfter bool) error {
	hp := srvRespPool.Get().(*[]byte)
	h := (*hp)[:0]
	h = append(h, "HTTP/1.1 "...)
	h = strconv.AppendInt(h, int64(w.status), 10)
	h = append(h, ' ')
	if text := http.StatusText(w.status); text != "" {
		h = append(h, text...)
	} else {
		h = append(h, "Status"...)
	}
	h = append(h, '\r', '\n')
	for k, vs := range w.hdr {
		if k == "Content-Length" || k == "Transfer-Encoding" {
			continue // the body is always framed by its computed length
		}
		for _, v := range vs {
			h = append(h, k...)
			h = append(h, ':', ' ')
			h = append(h, v...)
			h = append(h, '\r', '\n')
		}
	}
	w.clearHeader()
	h = append(h, "Content-Length: "...)
	if w.isHead {
		h = strconv.AppendInt(h, int64(w.headN), 10)
	} else {
		h = strconv.AppendInt(h, int64(len(w.buf)), 10)
	}
	h = append(h, '\r', '\n')
	if closeAfter {
		h = append(h, "Connection: close\r\n"...)
	}
	h = append(h, '\r', '\n')

	if !w.isHead {
		h = append(h, w.buf...)
	}
	_, err := c.Write(h)
	*hp = h[:0]
	srvRespPool.Put(hp)
	return err
}

var (
	_ http.ResponseWriter = (*fastResponseWriter)(nil)
	_ io.StringWriter     = (*fastResponseWriter)(nil)
)
