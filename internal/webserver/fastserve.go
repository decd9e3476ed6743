package webserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"sync"
)

// The server half of the netsim-native HTTP fast path (see
// internal/netsim/fasthttp.go for the client half and the rationale).
//
// A fastServer is a Farm's HTTP server: one goroutine per connection runs
// a read-parse-serve-write loop with per-connection reused
// request/header/URL structures, an interning table that keeps log
// strings off the reused read buffer, and a pooled response buffer
// flushed in a single ring write. Farm.handleReq and Site.serve see the
// plain http.ResponseWriter + *http.Request surface, so a stock
// http.Server can drive the same dispatch — which is how the
// differential test checks this framing against net/http.

const (
	srvReadBufSize  = 8 * 1024
	srvMaxHeaders   = 64      // header count bound per request
	srvMaxBodyDrain = 8 << 20 // largest request body the server will swallow
	srvMaxInterned  = 512     // per-connection intern table bound
	srvRespBufSize  = 4 * 1024
)

var (
	errSrvHeaderTooLong = errors.New("webserver: fast server: header line exceeds buffer")
	errSrvTooManyHdrs   = errors.New("webserver: fast server: too many header lines")
)

var (
	srvReadPool = sync.Pool{New: func() any { return make([]byte, srvReadBufSize) }}
	srvRespPool = sync.Pool{New: func() any { b := make([]byte, 0, srvRespBufSize); return &b }}
)

// fastServer accepts connections and runs one serve loop per conn.
type fastServer struct {
	ln   net.Listener
	farm *Farm

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

func startFastServer(ln net.Listener, farm *Farm) *fastServer {
	fs := &fastServer{ln: ln, farm: farm, conns: make(map[net.Conn]struct{})}
	fs.wg.Add(1)
	go fs.acceptLoop()
	return fs
}

func (fs *fastServer) acceptLoop() {
	defer fs.wg.Done()
	for {
		c, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		if fs.closed {
			fs.mu.Unlock()
			c.Close()
			return
		}
		fs.conns[c] = struct{}{}
		fs.mu.Unlock()
		fs.wg.Add(1)
		go fs.serveConn(c)
	}
}

// Close stops the listener and closes every live connection, then waits
// for the serve loops to retire their log shards.
func (fs *fastServer) Close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		fs.wg.Wait()
		return nil
	}
	fs.closed = true
	conns := make([]net.Conn, 0, len(fs.conns))
	for c := range fs.conns {
		conns = append(conns, c)
	}
	fs.mu.Unlock()
	err := fs.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	fs.wg.Wait()
	return err
}

func (fs *fastServer) forget(c net.Conn) {
	fs.mu.Lock()
	delete(fs.conns, c)
	fs.mu.Unlock()
}

// serveConn is the per-connection loop: parse one request, serve it,
// flush the response, repeat until the peer goes away or framing breaks.
func (fs *fastServer) serveConn(c net.Conn) {
	defer fs.wg.Done()
	fc := fs.farm.openConn(c)
	st := newSrvConnState(c)
	defer func() {
		c.Close()
		fs.forget(c)
		fs.farm.retireConn(c)
		st.release()
	}()
	for {
		if err := st.readRequest(); err != nil {
			return
		}
		st.w.reset(st.req.Method == http.MethodHead)
		fs.farm.handleReq(fc, &st.w, &st.req)
		if err := st.w.finish(c, st.closeAfter); err != nil {
			return
		}
		if st.closeAfter {
			return
		}
	}
}

// srvConnState is one connection's reused parsing state. Every string
// that outlives a request (log records keep Path and User-Agent) is
// interned, never aliased to the reused read buffer.
type srvConnState struct {
	rd         reqReader
	req        http.Request
	u          url.URL
	hdr        http.Header
	strs       map[string]string
	w          fastResponseWriter
	remoteAddr string
	closeAfter bool
}

func newSrvConnState(c net.Conn) *srvConnState {
	st := &srvConnState{
		hdr:        make(http.Header, 8),
		strs:       make(map[string]string, 16),
		remoteAddr: c.RemoteAddr().String(),
	}
	st.rd.c = c
	st.rd.buf = srvReadPool.Get().([]byte)
	st.w.hdr = make(http.Header, 4)
	st.w.buf = (*srvRespPool.Get().(*[]byte))[:0]
	st.req.Header = st.hdr
	st.req.Proto = "HTTP/1.1"
	st.req.ProtoMajor, st.req.ProtoMinor = 1, 1
	st.req.RemoteAddr = st.remoteAddr
	st.req.Body = http.NoBody
	return st
}

func (st *srvConnState) release() {
	srvReadPool.Put(st.rd.buf) //nolint:staticcheck // fixed-size []byte
	st.rd.buf = nil
	b := st.w.buf[:0]
	srvRespPool.Put(&b)
	st.w.buf = nil
}

// intern returns a stable string equal to b. The per-connection table is
// bounded; once full, rare new strings fall back to a plain copy.
func (st *srvConnState) intern(b []byte) string {
	if s, ok := st.strs[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	if len(st.strs) < srvMaxInterned {
		st.strs[s] = s
	}
	return s
}

// readRequest parses one request head into the reused request struct and
// drains any declared body so the handler never has to.
func (st *srvConnState) readRequest() error {
	line, err := st.rd.readLine()
	if err != nil {
		return err
	}
	// Request line: METHOD SP TARGET SP HTTP/1.x
	sp1 := indexByte(line, ' ')
	if sp1 <= 0 {
		return fmt.Errorf("webserver: fast server: malformed request line %q", line)
	}
	sp2 := indexByteFrom(line, sp1+1, ' ')
	if sp2 < 0 || sp2 == sp1+1 {
		return fmt.Errorf("webserver: fast server: malformed request line %q", line)
	}
	methodB, targetB, protoB := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	var keepAlive bool
	switch {
	case string(protoB) == "HTTP/1.1":
		keepAlive = true
	case string(protoB) == "HTTP/1.0":
		keepAlive = false
	default:
		return fmt.Errorf("webserver: fast server: unsupported proto %q", protoB)
	}
	method := st.intern(methodB)

	// Reset per-request state. Truncating (not deleting) header values
	// keeps each key's []string backing allocated across requests;
	// Header.Get on a truncated key sees "", exactly like an absent key.
	for k, v := range st.hdr {
		if len(v) > 0 {
			st.hdr[k] = v[:0]
		}
	}
	st.req.Method = method
	st.req.Host = ""
	st.req.ContentLength = 0
	st.req.Body = http.NoBody
	st.closeAfter = !keepAlive

	// Headers.
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
		colon := indexByte(line, ':')
		if colon <= 0 {
			return fmt.Errorf("webserver: fast server: malformed header %q", line)
		}
		kb, vb := line[:colon], trimOWSBytes(line[colon+1:])
		val := st.intern(vb)
		switch {
		case equalFoldBytes(kb, "host"):
			st.req.Host = val
		case equalFoldBytes(kb, "content-length"):
			cl, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil || cl < 0 {
				return fmt.Errorf("webserver: fast server: bad Content-Length %q", val)
			}
			contentLength = cl
		case equalFoldBytes(kb, "connection"):
			if equalFoldBytes(vb, "close") {
				st.closeAfter = true
			} else if equalFoldBytes(vb, "keep-alive") {
				st.closeAfter = false
			}
			continue // not surfaced in the header map, like stdlib
		case equalFoldBytes(kb, "transfer-encoding"):
			chunked = true
			continue
		}
		key := st.canonicalKey(kb)
		st.hdr[key] = append(st.hdr[key], val)
	}
	if chunked {
		return errors.New("webserver: fast server: chunked request bodies unsupported")
	}
	if st.req.Host == "" && keepAlive {
		// HTTP/1.1 requires Host; 1.0 requests may omit it.
		return errors.New("webserver: fast server: missing Host header")
	}
	st.req.ContentLength = contentLength

	// Request target. The overwhelmingly common case — origin-form, no
	// query, no escapes — fills the reused URL; anything else takes the
	// net/url slow path.
	if len(targetB) > 0 && targetB[0] == '/' && !needsURLParse(targetB) {
		target := st.intern(targetB)
		st.u = url.URL{Path: target}
		st.req.URL = &st.u
		st.req.RequestURI = target
	} else {
		target := st.intern(targetB)
		parsed, perr := url.ParseRequestURI(target)
		if perr != nil {
			return fmt.Errorf("webserver: fast server: bad request target %q: %w", target, perr)
		}
		st.req.URL = parsed
		st.req.RequestURI = target
	}

	// Drain the body up front: handlers never read it, and a client
	// blocked writing a large body into the 32 KiB ring cannot start
	// reading our response until we consume it.
	if contentLength > 0 {
		if contentLength > srvMaxBodyDrain {
			return fmt.Errorf("webserver: fast server: request body of %d bytes exceeds limit", contentLength)
		}
		if err := st.rd.discard(contentLength); err != nil {
			return err
		}
	}
	return nil
}

// needsURLParse reports whether the target has a query or escape and so
// needs real URL parsing.
func needsURLParse(b []byte) bool {
	for _, c := range b {
		if c == '?' || c == '%' || c == '#' {
			return true
		}
	}
	return false
}

// canonicalKey converts a header key to its canonical form, interning
// the already-canonical common case without allocation.
func (st *srvConnState) canonicalKey(b []byte) string {
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

func indexByte(b []byte, c byte) int { return indexByteFrom(b, 0, c) }

func indexByteFrom(b []byte, from int, c byte) int {
	for i := from; i < len(b); i++ {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func trimOWSBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// equalFoldBytes reports b == lower ASCII-case-insensitively; lower must
// be lowercase.
func equalFoldBytes(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// reqReader is the server-side buffered line/byte reader (the client
// half keeps its own copy in netsim; the two packages do not share
// unexported types).
type reqReader struct {
	c    net.Conn
	buf  []byte
	r, w int
}

func (rr *reqReader) fill() error {
	if rr.r > 0 {
		copy(rr.buf, rr.buf[rr.r:rr.w])
		rr.w -= rr.r
		rr.r = 0
	}
	if rr.w == len(rr.buf) {
		return errSrvHeaderTooLong
	}
	n, err := rr.c.Read(rr.buf[rr.w:])
	rr.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

func (rr *reqReader) readLine() ([]byte, error) {
	scanned := 0
	for {
		if i := indexByteFrom(rr.buf[rr.r:rr.w], scanned, '\n'); i >= 0 {
			line := rr.buf[rr.r : rr.r+i]
			rr.r += i + 1
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		}
		scanned = rr.w - rr.r
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
}

func (rr *reqReader) discard(n int64) error {
	for n > 0 {
		if have := int64(rr.w - rr.r); have > 0 {
			if have > n {
				have = n
			}
			rr.r += int(have)
			n -= have
			continue
		}
		if err := rr.fill(); err != nil {
			return err
		}
	}
	return nil
}

// fastResponseWriter implements http.ResponseWriter (and io.StringWriter,
// which Site.serve's io.WriteString uses) over a reused buffer; finish
// frames the response with the computed Content-Length and flushes it in
// at most one ring write.
type fastResponseWriter struct {
	hdr         http.Header
	status      int
	wroteHeader bool
	isHead      bool
	buf         []byte // accumulated body bytes (suppressed for HEAD)
	headN       int    // HEAD: bytes the handler "wrote"
}

func (w *fastResponseWriter) reset(isHead bool) {
	for k, v := range w.hdr {
		if len(v) > 0 {
			w.hdr[k] = v[:0]
		}
	}
	w.status = http.StatusOK
	w.wroteHeader = false
	w.isHead = isHead
	w.buf = w.buf[:0]
	w.headN = 0
}

// Header implements http.ResponseWriter.
func (w *fastResponseWriter) Header() http.Header { return w.hdr }

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
	w.buf = append(w.buf, p...)
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
	w.buf = append(w.buf, s...)
	return len(s), nil
}

// finish frames and flushes the buffered response. The head is built in
// a pooled scratch buffer; when head + body fit one buffer they go out
// in a single conn write.
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
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			h = append(h, k...)
			h = append(h, ':', ' ')
			h = append(h, v...)
			h = append(h, '\r', '\n')
		}
	}
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

	var err error
	if !w.isHead && len(w.buf) > 0 {
		h = append(h, w.buf...)
	}
	_, err = c.Write(h)
	*hp = h[:0]
	srvRespPool.Put(hp)
	return err
}

var _ http.ResponseWriter = (*fastResponseWriter)(nil)
var _ io.StringWriter = (*fastResponseWriter)(nil)
