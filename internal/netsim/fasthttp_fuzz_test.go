package netsim

import (
	"io"
	"net"
	"net/http"
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
// response parser: any input must either parse into a response whose
// body drains to a clean end, or return an error — never panic, never
// loop forever.
func FuzzFastResponseParse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.0 404 Not Found\r\n\r\nbody until eof"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 421 Misdirected Request\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno"))
	f.Add([]byte("HTTP/9.9 xxx\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\nshort"))
	f.Add([]byte("garbage\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newFastTransport(nil, "198.51.100.1")
		req, err := http.NewRequest(http.MethodGet, "http://fuzz.test/", nil)
		if err != nil {
			t.Fatal(err)
		}
		fc := &fastConn{c: &fuzzConn{data: data}, key: "fuzz.test:80"}
		fc.br.c = fc.c
		fc.br.buf = make([]byte, fastReadBufSize)
		resp, _, err := tr.readResponse(fc, req)
		if err != nil {
			return
		}
		if resp.StatusCode < 100 || resp.StatusCode > 999 {
			t.Fatalf("accepted out-of-range status %d", resp.StatusCode)
		}
		// The head parsed; the finite stream must drain without panicking.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
}
