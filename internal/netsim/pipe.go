package netsim

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// errConnReset is returned by reads and writes on a connection whose peer
// has closed — including dials that were accepted into a listener's
// backlog just before the listener shut down and drained it. It is
// syscall.ECONNRESET under errors.Is, as a reset TCP conn's error is.
var errConnReset = fmt.Errorf("netsim: %w", syscall.ECONNRESET)

// connBufSize is the per-direction buffer capacity of a simulated
// connection. It plays the role of the TCP window: writers block only
// when the reader has fallen this many bytes behind, instead of
// rendezvousing with the reader on every byte the way net.Pipe does.
// 32 KiB comfortably exceeds every request and response the simulated
// sites exchange while keeping pooled keep-alive connections cheap.
const connBufSize = 32 * 1024

// bufPool recycles direction buffers across connections, so a dial
// costs no new ring once earlier conns have closed (a frame client's
// reconnect, a test's dial per case). A dial takes two, one per
// direction.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, connBufSize); return &b },
}

// halfPipe is one direction of a duplex connection: a fixed-capacity ring
// buffer with exactly one reading conn and one writing conn. A single
// cond (broadcast on every state change) serves both sides; each
// direction has at most one blocked reader and one blocked writer, so the
// extra wakeups are immaterial.
type halfPipe struct {
	mu   sync.Mutex
	cond sync.Cond

	buf    []byte  // ring storage, returned to bufPool when both sides close
	pooled *[]byte // buf's bufPool box
	r      int     // index of the next byte to read
	n      int     // bytes currently buffered

	readerGone bool // read side closed: writes fail with errConnReset
	writerGone bool // write side closed: reads drain, then io.EOF

	rdl expiry // read deadline (owned by the reading conn)
	wdl expiry // write deadline (owned by the writing conn)
}

// expiry is an armable deadline. Its one timer is made on the first arm
// and reset on every later one, so re-arming allocates nothing. When the
// timer fires, the callback marks the deadline expired and broadcasts
// the halfPipe's cond so blocked operations fail, but only once the time
// armed last has passed: a callback whose Stop or Reset lost the race
// must not poison a deadline that was cleared or moved later since.
type expiry struct {
	timer   *time.Timer
	at      time.Time // the armed deadline; zero when cleared
	expired bool
}

func newHalfPipe() *halfPipe {
	pooled := bufPool.Get().(*[]byte)
	h := &halfPipe{buf: *pooled, pooled: pooled}
	h.cond.L = &h.mu
	return h
}

// read copies buffered bytes into p, blocking until data, EOF, deadline
// expiry, or close.
func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.readerGone:
			return 0, io.ErrClosedPipe
		case h.rdl.expired:
			return 0, os.ErrDeadlineExceeded
		case h.n > 0:
			nr := 0
			for nr < len(p) && h.n > 0 {
				chunk := len(h.buf) - h.r // contiguous run before wraparound
				if chunk > h.n {
					chunk = h.n
				}
				c := copy(p[nr:], h.buf[h.r:h.r+chunk])
				nr += c
				h.r = (h.r + c) % len(h.buf)
				h.n -= c
			}
			if h.writerGone && h.n == 0 {
				h.releaseLocked() // FIN already seen and now fully drained
			}
			h.cond.Broadcast() // space freed: wake a blocked writer
			return nr, nil
		case h.writerGone:
			return 0, io.EOF
		}
		h.cond.Wait()
	}
}

// write copies all of p into the ring, blocking while the buffer is full.
func (h *halfPipe) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total int
	for len(p) > 0 {
		switch {
		case h.writerGone:
			return total, io.ErrClosedPipe
		case h.readerGone:
			return total, errConnReset
		case h.wdl.expired:
			return total, os.ErrDeadlineExceeded
		}
		if h.n == len(h.buf) {
			h.cond.Wait()
			continue
		}
		w := (h.r + h.n) % len(h.buf)
		chunk := len(h.buf) - w // contiguous run before wraparound
		if free := len(h.buf) - h.n; chunk > free {
			chunk = free
		}
		c := copy(h.buf[w:w+chunk], p)
		h.n += c
		total += c
		p = p[c:]
		h.cond.Broadcast() // data available: wake a blocked reader
	}
	return total, nil
}

// closeRead shuts the reading side: the peer's pending and future writes
// fail with errConnReset.
func (h *halfPipe) closeRead() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.readerGone {
		return
	}
	h.readerGone = true
	if h.rdl.timer != nil {
		h.rdl.timer.Stop()
	}
	h.releaseLocked()
	h.cond.Broadcast()
}

// closeWrite shuts the writing side: the peer drains what is buffered and
// then reads io.EOF, exactly like a TCP FIN.
func (h *halfPipe) closeWrite() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.writerGone {
		return
	}
	h.writerGone = true
	if h.wdl.timer != nil {
		h.wdl.timer.Stop()
	}
	h.releaseLocked()
	h.cond.Broadcast()
}

// releaseLocked returns the ring storage to the pool once no byte can
// ever be read from it again: the read side closed (undelivered bytes
// are dropped and writes fail with errConnReset), or the write side
// closed and the reader has drained everything (future reads see EOF
// without touching the ring). Releasing on either condition — not only
// when both conns close — matters because an idle keep-alive conn whose
// peer closed may never be touched again by its owner; waiting for a
// symmetric Close would leak both rings until GC. Callers must hold
// h.mu.
func (h *halfPipe) releaseLocked() {
	if h.buf == nil {
		return
	}
	if h.readerGone || (h.writerGone && h.n == 0) {
		bufPool.Put(h.pooled)
		h.buf, h.pooled = nil, nil
		h.n = 0
		h.r = 0
	}
}

// setDeadline arms or clears one side's deadline. Callers pass the field
// they own (rdl for the reading conn, wdl for the writing conn).
func (h *halfPipe) setDeadline(d *expiry, t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d.at = t
	d.expired = false
	switch dur := time.Until(t); {
	case t.IsZero() || dur <= 0:
		d.expired = !t.IsZero()
		if d.timer != nil {
			d.timer.Stop()
		}
	case d.timer == nil:
		d.timer = time.AfterFunc(dur, func() { h.expire(d) })
	default:
		d.timer.Reset(dur)
	}
	h.cond.Broadcast()
}

// expire is d's timer callback. A deadline that is cleared or not yet
// due (re-armed later, or a wall-clock t the monotonic timer beat) is
// left alone; one not yet due waits for the rest of its time.
func (h *halfPipe) expire(d *expiry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d.at.IsZero() || d.expired {
		return
	}
	if rest := time.Until(d.at); rest > 0 {
		d.timer.Reset(rest)
		return
	}
	d.expired = true
	h.cond.Broadcast()
}

// conn is one end of a simulated duplex connection: it reads from one
// ring and writes to the other, and carries the simulated addresses that
// server logs attribute requests by.
type conn struct {
	rd, wr        *halfPipe
	local, remote net.Addr
	closeOnce     sync.Once
}

// newConnPair builds the two ends of a connection between client and
// server addresses.
func newConnPair(clientAddr, serverAddr net.Addr) (clientEnd, serverEnd *conn) {
	req := newHalfPipe()  // client -> server
	resp := newHalfPipe() // server -> client
	clientEnd = &conn{rd: resp, wr: req, local: clientAddr, remote: serverAddr}
	serverEnd = &conn{rd: req, wr: resp, local: serverAddr, remote: clientAddr}
	return clientEnd, serverEnd
}

func (c *conn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *conn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close shuts both directions: the peer drains buffered data and then
// sees EOF on reads, and its writes fail with errConnReset.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.rd.closeRead()
		c.wr.closeWrite()
	})
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.rd.setDeadline(&c.rd.rdl, t)
	c.wr.setDeadline(&c.wr.wdl, t)
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setDeadline(&c.rd.rdl, t)
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wr.setDeadline(&c.wr.wdl, t)
	return nil
}
