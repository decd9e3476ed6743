package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"
)

// dialPair builds a connected client/server conn pair through a listener.
func dialPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	nw := New()
	ln, err := nw.Listen("192.0.2.40", 80)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err = nw.Dial(context.Background(), "198.51.100.1", "192.0.2.40:80")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case server = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("accept did not complete")
	}
	return client, server
}

func TestBufferedConnRoundTrip(t *testing.T) {
	client, server := dialPair(t)
	defer client.Close()
	defer server.Close()

	// Writes smaller than the buffer complete without a reader present —
	// the buffered behaviour net.Pipe lacks.
	msg := []byte("hello over the simulated wire")
	done := make(chan error, 1)
	go func() {
		_, err := client.Write(msg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("buffered write: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("small write blocked: conn is not buffered")
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func TestBufferedConnLargeTransfer(t *testing.T) {
	client, server := dialPair(t)
	defer client.Close()
	defer server.Close()

	// A payload several times the ring capacity must flow with a
	// concurrent reader, exercising wraparound and writer blocking.
	payload := bytes.Repeat([]byte("0123456789abcdef"), 20*1024) // 320 KiB
	go func() {
		client.Write(payload)
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer mismatch: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestCloseDeliversEOFAfterDrain(t *testing.T) {
	client, server := dialPair(t)
	defer server.Close()

	if _, err := client.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	// The peer reads the buffered data first, then EOF — like a TCP FIN.
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("read after peer close: %v", err)
	}
	if string(got) != "last words" {
		t.Fatalf("drained %q", got)
	}
	// Writing to the closed peer fails with a reset.
	if _, err := server.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("write to closed peer = %v, want ErrConnReset", err)
	}
}

func TestReadWriteAfterOwnClose(t *testing.T) {
	client, server := dialPair(t)
	defer server.Close()
	client.Close()
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read after own close = %v, want io.ErrClosedPipe", err)
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after own close = %v, want io.ErrClosedPipe", err)
	}
}

func TestReadDeadline(t *testing.T) {
	client, server := dialPair(t)
	defer client.Close()
	defer server.Close()

	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := client.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	// Clearing the deadline makes the conn usable again.
	client.SetReadDeadline(time.Time{})
	go server.Write([]byte("k"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(client, buf); err != nil || buf[0] != 'k' {
		t.Fatalf("read after clearing deadline: %q, %v", buf, err)
	}
}

func TestWriteDeadlineUnblocksFullBuffer(t *testing.T) {
	client, server := dialPair(t)
	defer client.Close()
	defer server.Close()

	client.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	// Nobody reads: the write fills the ring and must fail at the
	// deadline instead of blocking forever.
	payload := make([]byte, 4*connBufSize)
	_, err := client.Write(payload)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("over-capacity write = %v, want ErrDeadlineExceeded", err)
	}
}

// TestClosingListenerDrainsBacklog pins the PR 2 stress-test fix: conns
// accepted into a closing listener's backlog are closed by Close, so the
// dialer's synchronous write fails fast instead of hanging until a
// deadline.
func TestClosingListenerDrainsBacklog(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.41", 80)
	if err != nil {
		t.Fatal(err)
	}
	// Dial without any Accept loop: the conn sits in the backlog.
	c, err := nw.Dial(context.Background(), "198.51.100.2", "192.0.2.41:80")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()

	// No deadline set: the fix, not a workaround, must unblock us. The
	// ring absorbs up to connBufSize bytes, so write more than that.
	done := make(chan error, 1)
	go func() {
		_, werr := c.Write(make([]byte, 2*connBufSize))
		done <- werr
	}()
	select {
	case werr := <-done:
		if !errors.Is(werr, ErrConnReset) {
			t.Fatalf("write into drained backlog = %v, want ErrConnReset", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write into drained backlog hung: listener.Close did not drain")
	}
	// Reads observe the close too.
	if _, rerr := c.Read(make([]byte, 1)); rerr != io.EOF && !errors.Is(rerr, ErrConnReset) {
		t.Fatalf("read on drained conn = %v, want EOF or reset", rerr)
	}
	c.Close()

	// New dials are refused outright.
	if _, err := nw.Dial(context.Background(), "198.51.100.2", "192.0.2.41:80"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("dial after close = %v, want ErrConnRefused", err)
	}
}

// TestHTTPKeepAlivePoolsPerSourceAndTarget proves connection reuse: the
// server sees one remote port across sequential requests from one
// client, while a stdlib client with keep-alives off dials afresh (new
// ephemeral port) per request.
func TestHTTPKeepAlivePoolsPerSourceAndTarget(t *testing.T) {
	remotePorts := func(perRequestDial bool) []string {
		nw := New()
		nw.Register("pool.test", "203.0.113.30")
		ln, err := nw.Listen("203.0.113.30", 80)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var ports []string
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, port, _ := net.SplitHostPort(r.RemoteAddr)
			mu.Lock()
			ports = append(ports, port)
			mu.Unlock()
			fmt.Fprint(w, "ok")
		})}
		go srv.Serve(ln)
		defer srv.Close()
		client := nw.HTTPClient("198.51.100.60")
		if perRequestDial {
			client = stdlibClient(nw, "198.51.100.60", false)
		}
		for i := 0; i < 3; i++ {
			resp, err := client.Get("http://pool.test/")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ports...)
	}

	pooled := remotePorts(false)
	if len(pooled) != 3 || pooled[0] != pooled[1] || pooled[1] != pooled[2] {
		t.Fatalf("keep-alive requests used ports %v, want one reused port", pooled)
	}
	dialed := remotePorts(true)
	if len(dialed) != 3 || dialed[0] == dialed[1] || dialed[1] == dialed[2] {
		t.Fatalf("per-request dial used ports %v, want distinct ports", dialed)
	}
}

// TestConnBuffersRecycled sanity-checks that closing both ends releases
// ring buffers back to the pool without double-free panics under churn.
func TestConnBuffersRecycled(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("192.0.2.42", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				io.Copy(io.Discard, c)
				c.Close()
			}(c)
		}
	}()
	for i := 0; i < 200; i++ {
		c, err := nw.Dial(context.Background(), "198.51.100.3", "192.0.2.42:80")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		c.Close()
		// Double close must be safe.
		c.Close()
	}
}
