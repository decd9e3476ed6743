package policyd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// The binary frame protocol (RPB2): /v1/batch semantics without HTTP or
// JSON.
//
// JSON encode/decode dominates the batched decision path once transport
// framing is fast — marshalling a 4096-query batch costs more than
// answering it. The frame protocol keeps the exact batch semantics
// (queries in, positionally aligned decisions out, one consistent
// snapshot per batch) on a length-prefixed little-endian wire:
//
//	conn preamble:  4-byte magic "RPB2" (protocol name + version)
//	request frame:  u32 payload length, then payload:
//	                  u32 query count
//	                  per query: u16 len + bytes for host, agent, path
//	response frame: u32 payload length, then payload, status 0 (decisions):
//	                  u8 0, u16 version len + bytes (the serving snapshot)
//	                  u32 decision count
//	                  per decision: 1 byte action, 1 byte signal
//	                or payload, status 1 (rate-limited):
//	                  u8 1, u32 retry-after in milliseconds
//
// A rate-limited batch is the only in-band error: the connection stays
// usable. Any other preamble, a malformed or oversized frame, a frame
// (or preamble) not read whole within FrameReadTimeout, or a failure to
// answer closes the connection, exactly like a broken-framing TCP peer.
// The limits are shared with the JSON API: MaxBatch queries per frame,
// maxBatchBytes payload bytes.

// FrameMagicV2 is the 4-byte connection preamble; the trailing byte is
// the protocol version.
var FrameMagicV2 = [4]byte{'R', 'P', 'B', '2'}

// Response status bytes.
const (
	frameStatusOK        = 0
	frameStatusRateLimit = 1
)

// RateLimitError reports a request rejected by a quota, carrying the
// server's earliest useful retry time. Both wires surface it: HTTP as
// 429 + Retry-After, frames as a status-1 response.
type RateLimitError struct {
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("policyd: rate limited, retry after %s", e.RetryAfter)
}

// maxFramePayload bounds one frame's payload, mirroring the JSON API's
// body cap.
const maxFramePayload = maxBatchBytes

// Frame decode/encode errors.
var (
	errFrameTruncated = errors.New("policyd: frame truncated")
	errFrameOversized = errors.New("policyd: frame exceeds limits")
	errFrameGarbled   = errors.New("policyd: frame garbled")
)

// AppendQueryFrame appends one complete request frame (length prefix
// included) for qs to dst and returns the extended slice. It fails when
// a batch exceeds the wire limits (query count, string lengths, total
// payload).
func AppendQueryFrame(dst []byte, qs []Query) ([]byte, error) {
	if len(qs) > MaxBatch {
		return dst, fmt.Errorf("%w: %d queries > %d", errFrameOversized, len(qs), MaxBatch)
	}
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // payload length backfilled below
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(qs)))
	for _, q := range qs {
		var err error
		if dst, err = appendString16(dst, q.Host); err != nil {
			return dst[:base], err
		}
		if dst, err = appendString16(dst, q.Agent); err != nil {
			return dst[:base], err
		}
		if dst, err = appendString16(dst, q.Path); err != nil {
			return dst[:base], err
		}
	}
	payload := len(dst) - base - 4
	if payload > maxFramePayload {
		return dst[:base], fmt.Errorf("%w: payload %d bytes", errFrameOversized, payload)
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(payload))
	return dst, nil
}

func appendString16(dst []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return dst, fmt.Errorf("%w: string of %d bytes", errFrameOversized, len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// DecodeQueryPayload decodes a request frame's payload (the bytes after
// the u32 length prefix), appending to qs. Malformed input — truncated
// strings, trailing bytes, an oversized count — returns an error, never
// panics.
//
// The decoded query strings alias payload to keep the hot serve loop
// allocation-free; they are valid only until the caller reuses the
// buffer, which is safe here because Snapshot.Decide never retains its
// query.
func DecodeQueryPayload(payload []byte, qs []Query) ([]Query, error) {
	if len(payload) > maxFramePayload {
		return qs, errFrameOversized
	}
	if len(payload) < 4 {
		return qs, errFrameTruncated
	}
	count := binary.LittleEndian.Uint32(payload)
	if count > MaxBatch {
		return qs, fmt.Errorf("%w: %d queries > %d", errFrameOversized, count, MaxBatch)
	}
	off := 4
	for i := uint32(0); i < count; i++ {
		var q Query
		var err error
		if q.Host, off, err = readString16(payload, off); err != nil {
			return qs, err
		}
		if q.Agent, off, err = readString16(payload, off); err != nil {
			return qs, err
		}
		if q.Path, off, err = readString16(payload, off); err != nil {
			return qs, err
		}
		qs = append(qs, q)
	}
	if off != len(payload) {
		return qs, fmt.Errorf("%w: %d trailing bytes", errFrameGarbled, len(payload)-off)
	}
	return qs, nil
}

// readString16 reads a u16-length-prefixed string aliasing payload.
func readString16(payload []byte, off int) (string, int, error) {
	if off+2 > len(payload) {
		return "", off, errFrameTruncated
	}
	n := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if off+n > len(payload) {
		return "", off, errFrameTruncated
	}
	if n == 0 {
		return "", off, nil
	}
	s := unsafe.String(&payload[off], n)
	return s, off + n, nil
}

// decodeDecisionPayload decodes the decision records that end an OK
// response payload (u32 count, then 2 bytes each), appending to ds.
// Out-of-range action or signal bytes are rejected.
func decodeDecisionPayload(payload []byte, ds []Decision) ([]Decision, error) {
	if len(payload) < 4 {
		return ds, errFrameTruncated
	}
	count := binary.LittleEndian.Uint32(payload)
	if count > MaxBatch {
		return ds, fmt.Errorf("%w: %d decisions > %d", errFrameOversized, count, MaxBatch)
	}
	if len(payload) != 4+2*int(count) {
		return ds, fmt.Errorf("%w: %d bytes for %d decisions", errFrameGarbled, len(payload), count)
	}
	for i := uint32(0); i < count; i++ {
		a, s := payload[4+2*i], payload[5+2*i]
		if a > byte(Block) || s > byte(signalMeta) {
			return ds, fmt.Errorf("%w: decision bytes (%d, %d)", errFrameGarbled, a, s)
		}
		ds = append(ds, Decision{Action: Action(a), Signal: Signal(s)})
	}
	return ds, nil
}

// AppendDecisionFrameV2 appends one complete OK response frame for ds to
// dst, naming the snapshot version that produced the decisions.
func AppendDecisionFrameV2(dst []byte, ds []Decision, version string) []byte {
	if len(version) > 0xFFFF {
		version = version[:0xFFFF]
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+2+len(version)+4+2*len(ds)))
	dst = append(dst, frameStatusOK)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(version)))
	dst = append(dst, version...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ds)))
	for _, d := range ds {
		dst = append(dst, byte(d.Action), byte(d.Signal))
	}
	return dst
}

// appendRateLimitFrame appends one complete rate-limited response frame
// to dst. retryAfter is carried in milliseconds, clamped to u32.
func appendRateLimitFrame(dst []byte, retryAfter time.Duration) []byte {
	ms := retryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > 0xFFFFFFFF {
		ms = 0xFFFFFFFF
	}
	dst = binary.LittleEndian.AppendUint32(dst, 1+4)
	dst = append(dst, frameStatusRateLimit)
	return binary.LittleEndian.AppendUint32(dst, uint32(ms))
}

// DecodeResponsePayloadV2 decodes a response payload. An OK status
// appends the decisions to ds and returns the serving snapshot version;
// a rate-limited status returns a *RateLimitError carrying Retry-After.
func DecodeResponsePayloadV2(payload []byte, ds []Decision) ([]Decision, string, error) {
	ds, version, err := decodeResponse(payload, ds)
	return ds, string(version), err
}

// decodeResponse is DecodeResponsePayloadV2 with the version left as a
// slice of payload, so a caller that has seen it before need not copy it.
func decodeResponse(payload []byte, ds []Decision) ([]Decision, []byte, error) {
	if len(payload) < 1 {
		return ds, nil, errFrameTruncated
	}
	switch payload[0] {
	case frameStatusRateLimit:
		if len(payload) != 5 {
			return ds, nil, fmt.Errorf("%w: rate-limit frame of %d bytes", errFrameGarbled, len(payload))
		}
		ms := binary.LittleEndian.Uint32(payload[1:])
		return ds, nil, &RateLimitError{RetryAfter: time.Duration(ms) * time.Millisecond}
	case frameStatusOK:
		if len(payload) < 3 {
			return ds, nil, errFrameTruncated
		}
		vn := int(binary.LittleEndian.Uint16(payload[1:]))
		if 3+vn > len(payload) {
			return ds, nil, errFrameTruncated
		}
		ds, err := decodeDecisionPayload(payload[3+vn:], ds)
		return ds, payload[3 : 3+vn], err
	default:
		return ds, nil, fmt.Errorf("%w: response status %d", errFrameGarbled, payload[0])
	}
}

// Answerer answers a batch from one snapshot: decisions appended to out
// in query order, plus the version of the snapshot that produced all of
// them. *Service answers from its current snapshot; a fleet gateway
// admits the batch against its quotas and routes it to a replica. A
// quota rejection is a *RateLimitError; any other error means the batch
// could not be answered.
type Answerer interface {
	Answer(ctx context.Context, qs []Query, out []Decision) ([]Decision, string, error)
}

// FrameReadTimeout bounds a frame server's wait for the preamble and for
// each frame, from its length prefix to its last payload byte, so a
// stalled or abandoned peer holds a conn no longer than the daemons'
// HTTP IdleTimeout lets an idle keep-alive conn live. A client that
// pools frame conns, as the fleet gateway does, retires one before it
// has been idle this long.
const FrameReadTimeout = 2 * time.Minute

// ServeFrames accepts connections from ln and answers frame batches from
// svc until the listener closes; then it closes the live connections and
// returns the Accept error (net.ErrClosed on a clean shutdown).
func ServeFrames(ln net.Listener, svc *Service) error {
	return ServeFramesFrom(ln, svc, mWireFrame)
}

// ServeFramesFrom is the frame loop behind every frame listener, replica
// or gateway: each connection gets its own goroutine and reused buffers,
// and requests counts the batches decoded. A *RateLimitError from a is
// answered in band; a protocol violation, a frame not read within
// FrameReadTimeout or any other error closes that connection only. It
// runs on netsim.Serve, so closing ln closes every live connection too,
// and it returns once their loops have exited.
func ServeFramesFrom(ln net.Listener, a Answerer, requests *obs.Counter) error {
	return netsim.Serve(ln, func(c net.Conn) { serveFrameConn(c, a, requests) })
}

func serveFrameConn(c net.Conn, a Answerer, requests *obs.Counter) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(FrameReadTimeout))
	var magic [4]byte
	if _, err := io.ReadFull(c, magic[:]); err != nil || magic != FrameMagicV2 {
		return
	}
	ctx := context.Background()
	var lenBuf [4]byte
	payload := make([]byte, 0, 64*1024)
	wbuf := make([]byte, 0, 16*1024)
	var qs []Query
	var out []Decision
	for {
		c.SetReadDeadline(time.Now().Add(FrameReadTimeout))
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxFramePayload {
			return
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(c, payload); err != nil {
			return
		}
		var err error
		qs, err = DecodeQueryPayload(payload, qs[:0])
		if err != nil {
			return
		}
		requests.Inc()
		var version string
		out, version, err = a.Answer(ctx, qs, out[:0])
		if err == nil {
			wbuf = AppendDecisionFrameV2(wbuf[:0], out, version)
		} else {
			var limited *RateLimitError // escapes: declared off the hot path
			if !errors.As(err, &limited) {
				return
			}
			wbuf = appendRateLimitFrame(wbuf[:0], limited.RetryAfter)
		}
		if _, err := c.Write(wbuf); err != nil {
			return
		}
	}
}

// FrameClientV2 speaks the frame protocol over one connection: every
// answer names the snapshot version that produced it, and a server-side
// quota rejection surfaces as *RateLimitError instead of a dead
// connection. It is not safe for concurrent use — batches are strictly
// request/response, like a non-pipelined HTTP client; open one per
// worker.
type FrameClientV2 struct {
	c       net.Conn
	lenBuf  [4]byte
	wbuf    []byte
	rbuf    []byte
	version string // last serving version, interned across responses
	armed   bool   // c carries a deadline Answer set
}

// NewFrameClientV2 sends the protocol preamble on c and returns a client.
func NewFrameClientV2(c net.Conn) (*FrameClientV2, error) {
	if _, err := c.Write(FrameMagicV2[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("policyd: frame preamble: %w", err)
	}
	return &FrameClientV2{c: c, wbuf: make([]byte, 0, 16*1024), rbuf: make([]byte, 0, 16*1024)}, nil
}

// Decide answers one batch, appending the decisions to out (pass a
// pre-sized out[:0] for an allocation-free exchange) and returning the
// snapshot version that served the whole batch. The server answers
// exactly one decision per query, in order. A *RateLimitError return
// leaves the connection usable — retry after the carried delay; any
// other error poisons the framing and the client must be closed.
func (fc *FrameClientV2) Decide(qs []Query, out []Decision) ([]Decision, string, error) {
	var err error
	fc.wbuf, err = AppendQueryFrame(fc.wbuf[:0], qs)
	if err != nil {
		return out, "", err
	}
	if _, err := fc.c.Write(fc.wbuf); err != nil {
		return out, "", err
	}
	if _, err := io.ReadFull(fc.c, fc.lenBuf[:]); err != nil {
		return out, "", err
	}
	n := binary.LittleEndian.Uint32(fc.lenBuf[:])
	if n > maxFramePayload {
		return out, "", errFrameOversized
	}
	if cap(fc.rbuf) < int(n) {
		fc.rbuf = make([]byte, n)
	}
	fc.rbuf = fc.rbuf[:n]
	if _, err := io.ReadFull(fc.c, fc.rbuf); err != nil {
		return out, "", err
	}
	start := len(out)
	var version []byte
	out, version, err = decodeResponse(fc.rbuf, out)
	if err != nil {
		return out, "", err
	}
	if len(out)-start != len(qs) {
		return out, "", fmt.Errorf("%w: %d decisions for %d queries", errFrameGarbled, len(out)-start, len(qs))
	}
	// The version is stable for swap-long stretches: copy it out of the
	// read buffer only when it changed (the comparison does not allocate).
	if string(version) != fc.version {
		fc.version = string(version)
	}
	return out, fc.version, nil
}

// Answer implements Answerer: it is Decide bounded by ctx. The exchange
// runs under ctx's deadline, and canceling ctx fails it. Either failure
// leaves the framing broken, like any error but a *RateLimitError, and
// returns ctx's error (context.DeadlineExceeded when the conn's
// deadline fires first). A ctx with no deadline and no Done channel
// (context.Background) costs nothing and allocates nothing.
func (fc *FrameClientV2) Answer(ctx context.Context, qs []Query, out []Decision) ([]Decision, string, error) {
	d, hasDeadline := ctx.Deadline()
	if hasDeadline {
		fc.c.SetDeadline(d)
		fc.armed = true
	} else if fc.armed {
		fc.c.SetDeadline(time.Time{})
		fc.armed = false
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { fc.c.SetDeadline(time.Unix(1, 0)) })
	}
	out, version, err := fc.Decide(qs, out)
	switch {
	case !stop() || (err != nil && ctx.Err() != nil):
		// ctx ended the exchange, or its cancel has set the conn's
		// deadline in the past: either way the client is done.
		err = ctx.Err()
	case hasDeadline && errors.Is(err, os.ErrDeadlineExceeded):
		err = context.DeadlineExceeded // the conn's timer beat ctx's
	}
	return out, version, err
}

// Close closes the underlying connection.
func (fc *FrameClientV2) Close() error { return fc.c.Close() }
