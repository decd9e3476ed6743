package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// dialPair builds a connected client/server conn pair through a
// listener, which it closes before returning: an accepted conn outlives
// its listener, and a test that runs in a bubble must close everything
// it opens there (a t.Cleanup would run outside the bubble). Every test
// that calls it runs in a bubble, where an Accept that never completes
// fails the test at once as a deadlock of the bubble.
func dialPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	nw := New()
	ln, err := nw.Listen("192.0.2.40", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
	return client, <-accepted
}

// TestBufferedConnRoundTrip: a write smaller than the buffer completes
// without a reader present — the buffered behaviour net.Pipe lacks. On
// synctest's clock a write that blocks is a deadlock of the bubble.
func TestBufferedConnRoundTrip(t *testing.T) {
	bubble(t, func() {
		client, server := dialPair(t)
		defer client.Close()
		defer server.Close()

		msg := []byte("hello over the simulated wire")
		if _, err := client.Write(msg); err != nil {
			t.Fatalf("buffered write: %v", err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("read %q, want %q", got, msg)
		}
	})
}

func TestBufferedConnLargeTransfer(t *testing.T) {
	bubble(t, func() {
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
	})
}

func TestCloseDeliversEOFAfterDrain(t *testing.T) {
	bubble(t, func() {
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
		if _, err := server.Write([]byte("x")); !errors.Is(err, errConnReset) {
			t.Fatalf("write to closed peer = %v, want ErrConnReset", err)
		}
	})
}

func TestReadWriteAfterOwnClose(t *testing.T) {
	bubble(t, func() {
		client, server := dialPair(t)
		defer server.Close()
		client.Close()
		if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("read after own close = %v, want io.ErrClosedPipe", err)
		}
		if _, err := client.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("write after own close = %v, want io.ErrClosedPipe", err)
		}
	})
}

// TestReadDeadline and TestWriteDeadlineUnblocksFullBuffer run in a
// bubble: on synctest's clock each deadline fires after exactly 50 ms.
func TestReadDeadline(t *testing.T) {
	bubble(t, func() {
		client, server := dialPair(t)
		defer client.Close()
		defer server.Close()

		client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		start := time.Now()
		_, err := client.Read(make([]byte, 1))
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read past deadline = %v, want ErrDeadlineExceeded", err)
		}
		elapsed := time.Since(start)
		if elapsed > 2*time.Second {
			t.Fatalf("deadline took %v to fire", elapsed)
		}
		if syntheticClock && elapsed != 50*time.Millisecond {
			t.Errorf("read deadline fired after %v of synthetic time, want exactly 50ms", elapsed)
		}
		// Clearing the deadline makes the conn usable again.
		client.SetReadDeadline(time.Time{})
		go server.Write([]byte("k"))
		buf := make([]byte, 1)
		if _, err := io.ReadFull(client, buf); err != nil || buf[0] != 'k' {
			t.Fatalf("read after clearing deadline: %q, %v", buf, err)
		}
	})
}

func TestWriteDeadlineUnblocksFullBuffer(t *testing.T) {
	bubble(t, func() {
		client, server := dialPair(t)
		defer client.Close()
		defer server.Close()

		client.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
		start := time.Now()
		// Nobody reads: the write fills the ring and must fail at the
		// deadline instead of blocking forever.
		payload := make([]byte, 4*connBufSize)
		_, err := client.Write(payload)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("over-capacity write = %v, want ErrDeadlineExceeded", err)
		}
		if elapsed := time.Since(start); syntheticClock && elapsed != 50*time.Millisecond {
			t.Errorf("write deadline fired after %v of synthetic time, want exactly 50ms", elapsed)
		}
	})
}

// TestConnDeadlineRearmAllocs: a conn makes its deadline timer on the
// first arm and resets it after, so a frame server that re-arms its read
// deadline before every frame allocates nothing for it. Not parallel:
// AllocsPerRun counts the whole process.
func TestConnDeadlineRearmAllocs(t *testing.T) {
	bubble(t, func() {
		client, server := dialPair(t)
		defer client.Close()
		defer server.Close()
		rearm := func() { server.SetReadDeadline(time.Now().Add(time.Minute)) }
		rearm()
		if allocs := testing.AllocsPerRun(1000, rearm); allocs > 0 {
			t.Fatalf("%v allocations per read-deadline re-arm, want 0", allocs)
		}
	})
}

// TestReadDeadlineMovedLater: a deadline moved later before it fires
// fires at the later time, not the earlier one, and a cleared one never
// fires.
func TestReadDeadlineMovedLater(t *testing.T) {
	bubble(t, func() {
		client, server := dialPair(t)
		defer client.Close()
		defer server.Close()

		start := time.Now()
		client.SetReadDeadline(start.Add(20 * time.Millisecond))
		client.SetReadDeadline(start.Add(60 * time.Millisecond))
		if _, err := client.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read past deadline = %v, want ErrDeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed < 60*time.Millisecond || syntheticClock && elapsed != 60*time.Millisecond {
			t.Errorf("moved deadline fired after %v, want 60ms", elapsed)
		}

		client.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		client.SetReadDeadline(time.Time{})
		time.Sleep(30 * time.Millisecond)
		go server.Write([]byte("k"))
		buf := make([]byte, 1)
		if _, err := io.ReadFull(client, buf); err != nil || buf[0] != 'k' {
			t.Fatalf("read after a cleared deadline's time passed: %q, %v", buf, err)
		}
	})
}

// TestClosingListenerDrainsBacklog pins the PR 2 stress-test fix: conns
// accepted into a closing listener's backlog are closed by Close, so the
// dialer's synchronous write fails fast instead of hanging until a
// deadline. On synctest's clock a write that hangs is a deadlock of the
// bubble.
func TestClosingListenerDrainsBacklog(t *testing.T) {
	bubble(t, func() {
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
		if _, werr := c.Write(make([]byte, 2*connBufSize)); !errors.Is(werr, errConnReset) {
			t.Fatalf("write into drained backlog = %v, want ErrConnReset", werr)
		}
		// Reads observe the close too.
		if _, rerr := c.Read(make([]byte, 1)); rerr != io.EOF && !errors.Is(rerr, errConnReset) {
			t.Fatalf("read on drained conn = %v, want EOF or reset", rerr)
		}
		c.Close()

		// New dials are refused outright.
		if _, err := nw.Dial(context.Background(), "198.51.100.2", "192.0.2.41:80"); !errors.Is(err, errConnRefused) {
			t.Fatalf("dial after close = %v, want ErrConnRefused", err)
		}
	})
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
