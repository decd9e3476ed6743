package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

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
// http:// URLs, a small fixed header set, Content-Length or chunked
// response framing, keep-alive pooling — straight over the buffered
// duplex conns, with pooled buffers and no per-request goroutines. A
// request outside that subset fails with an error naming what it asked
// for; there is no second transport to hand it to.

const (
	fastMaxIdlePerHost = 2  // matches the stdlib transport config it replaces
	fastMaxIdleTotal   = 64 // ditto
	fastReadBufSize    = 8 * 1024
	// fastMaxInlineBody is the largest request body serialized into the
	// head buffer so the whole request goes out in one ring write and can
	// be replayed on a dead pooled connection without GetBody.
	fastMaxInlineBody = 256 << 10
)

var (
	// fastHeadPool recycles request-head / response-head scratch buffers.
	fastHeadPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	// fastReadPool recycles per-connection read buffers.
	fastReadPool = sync.Pool{New: func() any { return make([]byte, fastReadBufSize) }}
	// fastCopyPool recycles copy buffers for streamed request bodies.
	fastCopyPool = sync.Pool{New: func() any { b := make([]byte, 16*1024); return &b }}
)

var errFastHeaderTooLong = errors.New("netsim: fast http: header line exceeds buffer")

// fastTransport implements http.RoundTripper over a Network.
type fastTransport struct {
	nw       *Network
	sourceIP string

	mu sync.Mutex
	// idle holds the pooled conns of every host, least recently used
	// first. It never exceeds fastMaxIdleTotal, so finding a host's newest
	// conn and counting a host's conns are short scans, and the conn the
	// total cap evicts is idle[0].
	idle []*fastConn
}

func newFastTransport(nw *Network, sourceIP string) *fastTransport {
	return &fastTransport{nw: nw, sourceIP: sourceIP}
}

// checkRequest returns an error naming what req asks for outside the
// subset fastTransport speaks, or nil when it fits.
func checkRequest(req *http.Request) error {
	u := req.URL
	switch {
	case u == nil:
		return errors.New("netsim: fast http: request has no URL")
	case u.Scheme != "http":
		return fmt.Errorf("netsim: fast http: unsupported scheme %q", u.Scheme)
	case u.Host == "" || u.Opaque != "" || u.User != nil:
		return fmt.Errorf("netsim: fast http: unsupported URL %q", u.Redacted())
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
	default:
		return fmt.Errorf("netsim: fast http: unsupported method %q", req.Method)
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
	if fc.br.buf != nil {
		fastReadPool.Put(fc.br.buf) //nolint:staticcheck // fixed-size []byte
		fc.br.buf = nil
	}
}

// RoundTrip implements http.RoundTripper.
func (t *fastTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := checkRequest(req); err != nil {
		closeRequestBody(req)
		return nil, err
	}
	mHTTPRequests.Inc()
	started := time.Now()
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		closeRequestBody(req)
		return nil, err
	}

	headp := fastHeadPool.Get().(*[]byte)
	head := appendRequestHead((*headp)[:0], req)

	// Small bodies ride in the head buffer: one ring write, and the
	// request can be replayed verbatim if a pooled conn turns out dead.
	var stream io.ReadCloser
	if req.Body != nil && req.ContentLength > 0 {
		if req.ContentLength <= fastMaxInlineBody {
			n := len(head)
			need := n + int(req.ContentLength)
			if cap(head) < need {
				grown := make([]byte, n, need)
				copy(grown, head)
				head = grown
			}
			head = head[:need]
			_, err := io.ReadFull(req.Body, head[n:])
			req.Body.Close()
			if err != nil {
				*headp = head[:0]
				fastHeadPool.Put(headp)
				return nil, fmt.Errorf("netsim: fast http: reading request body: %w", err)
			}
		} else {
			stream = req.Body
		}
	} else if req.Body != nil {
		req.Body.Close()
	}

	deadline, hasDeadline := ctx.Deadline()
	key := req.URL.Host

	for attempt := 0; ; attempt++ {
		fc, reused, err := t.getConn(req, key)
		if err != nil {
			closeStream(stream)
			*headp = head[:0]
			fastHeadPool.Put(headp)
			return nil, err
		}
		if hasDeadline {
			fc.c.SetDeadline(deadline)
			fc.deadlineArmed = true
		} else if fc.deadlineArmed {
			fc.c.SetDeadline(time.Time{})
			fc.deadlineArmed = false
		}
		resp, retryable, err := t.exchange(fc, head, stream, req)
		if err == nil {
			*headp = head[:0]
			fastHeadPool.Put(headp)
			mHTTPLatency.ObserveSince(started)
			return resp, nil
		}
		fc.close()
		// A pooled conn may have been closed by the server (site removed,
		// server shut down) between requests; the write or the first
		// response byte fails cleanly, and — like the stdlib transport —
		// we replay the request once on a fresh conn.
		if reused && attempt == 0 && retryable {
			mHTTPRetries.Inc()
			if stream != nil {
				if req.GetBody == nil {
					closeStream(stream)
					*headp = head[:0]
					fastHeadPool.Put(headp)
					return nil, err
				}
				stream, err = req.GetBody()
				if err != nil {
					*headp = head[:0]
					fastHeadPool.Put(headp)
					return nil, err
				}
			}
			continue
		}
		closeStream(stream)
		*headp = head[:0]
		fastHeadPool.Put(headp)
		return nil, err
	}
}

func closeStream(s io.ReadCloser) {
	if s != nil {
		s.Close()
	}
}

func closeRequestBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// getConn pops key's most recently pooled connection or dials a fresh
// one.
func (t *fastTransport) getConn(req *http.Request, key string) (*fastConn, bool, error) {
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
	c, err := t.nw.Dial(req.Context(), t.sourceIP, addr)
	if err != nil {
		return nil, false, err
	}
	fc := &fastConn{c: c, key: key}
	fc.br.c = c
	fc.br.buf = fastReadPool.Get().([]byte)
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

// exchange writes one serialized request and reads its response. The
// returned bool reports whether the failure is safely retryable on a
// fresh connection: the peer vanished before yielding a single response
// byte.
func (t *fastTransport) exchange(fc *fastConn, head []byte, stream io.ReadCloser, req *http.Request) (*http.Response, bool, error) {
	if _, err := fc.c.Write(head); err != nil {
		return nil, retryableErr(err), err
	}
	mHTTPBytesOut.Add(uint64(len(head)))
	if stream != nil {
		bufp := fastCopyPool.Get().(*[]byte)
		n, err := io.CopyBuffer(fc.c, stream, *bufp)
		fastCopyPool.Put(bufp)
		stream.Close()
		mHTTPBytesOut.Add(uint64(n))
		if err != nil {
			return nil, false, err // body partially consumed; caller needs GetBody
		}
	}
	return t.readResponse(fc, req)
}

// retryableErr reports whether an error means "peer gone" rather than
// deadline expiry or local cancellation.
func retryableErr(err error) bool {
	return errors.Is(err, errConnReset) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe)
}

// readResponse parses one HTTP/1.x response head and hands the body back
// as a framed reader that returns the connection to the pool when fully
// drained.
func (t *fastTransport) readResponse(fc *fastConn, req *http.Request) (*http.Response, bool, error) {
	br := &fc.br
	line, err := br.readLine()
	if err != nil {
		// Nothing buffered and the peer is gone: the reused conn was dead.
		return nil, br.buffered() == 0 && retryableErr(err), err
	}
	// Status line: "HTTP/1.x NNN reason".
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[8] != ' ' {
		return nil, false, fmt.Errorf("netsim: fast http: malformed status line %q", line)
	}
	minor := line[7] - '0'
	if minor > 1 {
		return nil, false, fmt.Errorf("netsim: fast http: unsupported proto %q", line[:8])
	}
	code := 0
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return nil, false, fmt.Errorf("netsim: fast http: malformed status line %q", line)
		}
		code = code*10 + int(c-'0')
	}
	if code < 100 {
		return nil, false, fmt.Errorf("netsim: fast http: status code %d out of range", code)
	}
	if len(line) > 12 && line[12] != ' ' {
		return nil, false, fmt.Errorf("netsim: fast http: malformed status line %q", line)
	}

	resp := &http.Response{
		StatusCode: code,
		Status:     strconv.Itoa(code) + " " + http.StatusText(code),
		Proto:      "HTTP/1." + string(rune('0'+minor)),
		ProtoMajor: 1,
		ProtoMinor: int(minor),
		Header:     make(http.Header, 4),
		Request:    req,
	}

	contentLength := int64(-1)
	chunked := false
	keepAlive := minor == 1
	for {
		line, err = br.readLine()
		if err != nil {
			return nil, false, fmt.Errorf("netsim: fast http: reading response header: %w", err)
		}
		if len(line) == 0 {
			break
		}
		colon := indexByteFrom(line, 0, ':')
		if colon <= 0 {
			return nil, false, fmt.Errorf("netsim: fast http: malformed response header %q", line)
		}
		kb, vb := line[:colon], trimOWS(line[colon+1:])
		switch {
		case asciiEqualFold(kb, "Content-Length"):
			n, perr := strconv.ParseInt(string(vb), 10, 64)
			if perr != nil || n < 0 {
				return nil, false, fmt.Errorf("netsim: fast http: bad Content-Length %q", vb)
			}
			contentLength = n
			resp.Header["Content-Length"] = []string{string(vb)}
		case asciiEqualFold(kb, "Transfer-Encoding"):
			if !asciiEqualFold(vb, "chunked") {
				return nil, false, fmt.Errorf("netsim: fast http: unsupported transfer encoding %q", vb)
			}
			chunked = true
			resp.TransferEncoding = []string{"chunked"}
		case asciiEqualFold(kb, "Connection"):
			if asciiEqualFold(vb, "close") {
				keepAlive = false
			} else if asciiEqualFold(vb, "keep-alive") {
				keepAlive = true
			}
		default:
			resp.Header[canonicalKey(kb)] = append(resp.Header[canonicalKey(kb)], string(vb))
		}
	}

	noBody := req.Method == http.MethodHead || code == http.StatusNoContent ||
		code == http.StatusNotModified || (code >= 100 && code < 200)
	body := &fastBody{t: t, fc: fc, keepAlive: keepAlive}
	switch {
	case noBody:
		body.mode = bodyNone
		if req.Method == http.MethodHead {
			resp.ContentLength = contentLength
		}
	case chunked:
		body.mode = bodyChunked
		resp.ContentLength = -1
	case contentLength >= 0:
		body.mode = bodyFixed
		body.remaining = contentLength
		resp.ContentLength = contentLength
	default:
		// No framing header: the body runs to connection close (HTTP/1.0
		// style); the conn cannot be reused.
		body.mode = bodyUntilEOF
		body.keepAlive = false
		resp.ContentLength = -1
	}
	resp.Body = body
	return resp, false, nil
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
	path := req.URL.EscapedPath()
	if path == "" {
		path = "/"
	}
	b = append(b, path...)
	if req.URL.ForceQuery || req.URL.RawQuery != "" {
		b = append(b, '?')
		b = append(b, req.URL.RawQuery...)
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	b = append(b, host...)
	b = append(b, '\r', '\n')
	if ua, ok := req.Header["User-Agent"]; !ok {
		b = append(b, "User-Agent: Go-http-client/1.1\r\n"...)
	} else if len(ua) > 0 && ua[0] != "" {
		b = append(b, "User-Agent: "...)
		b = append(b, ua[0]...)
		b = append(b, '\r', '\n')
	}
	for k, vs := range req.Header {
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

// connReader is a minimal buffered reader over one connection, used by
// both halves. Unlike bufio.Reader it exposes exactly what the framing
// needs — CRLF lines and counted reads — and its buffer is pool-recycled
// with the conn.
type connReader struct {
	c    net.Conn
	buf  []byte
	r, w int
	in   *obs.Counter // counts the bytes read when set (client conns only)
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

func indexByteFrom(b []byte, from int, c byte) int {
	for i := from; i < len(b); i++ {
		if b[i] == c {
			return i
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

// readFull reads exactly len(p) bytes.
func (cr *connReader) readFull(p []byte) error {
	for len(p) > 0 {
		n, err := cr.Read(p)
		p = p[n:]
		if err != nil {
			if err == io.EOF && n > 0 {
				continue
			}
			return err
		}
	}
	return nil
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

// Body framing modes.
const (
	bodyNone = iota
	bodyFixed
	bodyChunked
	bodyUntilEOF
)

// fastBody is a response body that knows its framing; when the caller
// drains and closes it, the underlying connection goes back to the idle
// pool (the keep-alive contract), otherwise the conn is closed.
type fastBody struct {
	t         *fastTransport
	fc        *fastConn
	mode      int
	remaining int64 // bodyFixed
	chunkRem  int64 // bodyChunked: bytes left in current chunk
	finalRead bool  // bodyChunked: last chunk consumed
	keepAlive bool
	done      bool // body fully consumed; conn clean
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
	if fb.done {
		return 0, io.EOF
	}
	var n int
	var err error
	switch fb.mode {
	case bodyNone:
		fb.done = true
		return 0, io.EOF
	case bodyFixed:
		if fb.remaining == 0 {
			fb.done = true
			return 0, io.EOF
		}
		if int64(len(p)) > fb.remaining {
			p = p[:fb.remaining]
		}
		n, err = fb.fc.br.Read(p)
		fb.remaining -= int64(n)
		if fb.remaining == 0 && err == nil {
			fb.done = true
		}
		if err == io.EOF && fb.remaining > 0 {
			err = io.ErrUnexpectedEOF
		}
	case bodyChunked:
		n, err = fb.readChunked(p)
	case bodyUntilEOF:
		n, err = fb.fc.br.Read(p)
		if err == io.EOF {
			fb.done = true
		}
	}
	if err != nil && err != io.EOF {
		fb.err = err
	}
	return n, err
}

// readChunked implements the chunked transfer coding decode, enough for
// stdlib servers that chunk responses larger than their write buffer.
func (fb *fastBody) readChunked(p []byte) (int, error) {
	br := &fb.fc.br
	for fb.chunkRem == 0 {
		if fb.finalRead {
			fb.done = true
			return 0, io.EOF
		}
		line, err := br.readLine()
		if err != nil {
			return 0, fmt.Errorf("netsim: fast http: reading chunk size: %w", err)
		}
		size, err := parseChunkSize(line)
		if err != nil {
			return 0, err
		}
		if size == 0 {
			// Trailer section: consume lines until the blank terminator.
			for {
				line, err := br.readLine()
				if err != nil {
					return 0, fmt.Errorf("netsim: fast http: reading chunk trailer: %w", err)
				}
				if len(line) == 0 {
					break
				}
			}
			fb.finalRead = true
			fb.done = true
			return 0, io.EOF
		}
		fb.chunkRem = size
	}
	if int64(len(p)) > fb.chunkRem {
		p = p[:fb.chunkRem]
	}
	n, err := br.Read(p)
	fb.chunkRem -= int64(n)
	if fb.chunkRem == 0 && err == nil {
		// Consume the CRLF that closes the chunk.
		var crlf [2]byte
		if ferr := br.readFull(crlf[:]); ferr != nil {
			return n, ferr
		}
		if crlf[0] != '\r' || crlf[1] != '\n' {
			return n, errors.New("netsim: fast http: malformed chunk terminator")
		}
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// parseChunkSize parses a hex chunk-size line, ignoring extensions.
func parseChunkSize(line []byte) (int64, error) {
	if i := indexByteFrom(line, 0, ';'); i >= 0 {
		line = line[:i]
	}
	line = trimOWS(line)
	if len(line) == 0 || len(line) > 16 {
		return 0, fmt.Errorf("netsim: fast http: malformed chunk size %q", line)
	}
	var n int64
	for _, c := range line {
		var d int64
		switch {
		case '0' <= c && c <= '9':
			d = int64(c - '0')
		case 'a' <= c && c <= 'f':
			d = int64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, fmt.Errorf("netsim: fast http: malformed chunk size %q", line)
		}
		n = n<<4 | d
		if n < 0 {
			return 0, fmt.Errorf("netsim: fast http: chunk size overflow")
		}
	}
	return n, nil
}

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
	if !fb.done && fb.err == nil && fb.keepAlive {
		fb.tryDrain()
	}
	if fb.done && fb.err == nil && fb.keepAlive {
		fb.t.putIdle(fb.fc)
	} else {
		fb.fc.close()
	}
	return nil
}

// maxDrainBytes bounds how much of an abandoned body Close will consume
// to rescue the connection for reuse.
const maxDrainBytes = 256 << 10

func (fb *fastBody) tryDrain() {
	switch fb.mode {
	case bodyFixed:
		if fb.remaining > maxDrainBytes {
			return
		}
		if err := fb.fc.br.discard(fb.remaining); err != nil {
			fb.err = err
			return
		}
		fb.remaining = 0
		fb.done = true
	case bodyChunked:
		var scratch [512]byte
		var total int64
		for {
			n, err := fb.readChunked(scratch[:])
			total += int64(n)
			if err == io.EOF {
				return // done flag set by readChunked
			}
			if err != nil || total > maxDrainBytes {
				return
			}
		}
	}
}

var (
	_ http.RoundTripper = (*fastTransport)(nil)
	_ io.ReadCloser     = (*fastBody)(nil)
)
