package policyd

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestFrameV2RoundTrip: the status-OK payload carries version +
// decisions and decodes back exactly.
func TestFrameV2RoundTrip(t *testing.T) {
	ds := []Decision{
		{allow, signalNone},
		{Deny, signalRobotsAgent},
		{Block, signalBlocker},
	}
	frame := AppendDecisionFrameV2(nil, ds, "2023-40")
	got, version, err := DecodeResponsePayloadV2(frame[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if version != "2023-40" {
		t.Fatalf("version %q", version)
	}
	if len(got) != len(ds) {
		t.Fatalf("%d decisions", len(got))
	}
	for i := range ds {
		if got[i] != ds[i] {
			t.Fatalf("decision %d: %v != %v", i, got[i], ds[i])
		}
	}
}

// TestFrameV2RateLimit: the status-1 payload decodes to *RateLimitError
// carrying the retry-after duration.
func TestFrameV2RateLimit(t *testing.T) {
	frame := appendRateLimitFrame(nil, 1500*time.Millisecond)
	_, _, err := DecodeResponsePayloadV2(frame[4:], nil)
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("error %v, want *RateLimitError", err)
	}
	if rle.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("RetryAfter %s", rle.RetryAfter)
	}
}

// TestFrameV2Malformed: truncated and trailing-garbage payloads must
// error, never panic or mis-decode.
func TestFrameV2Malformed(t *testing.T) {
	good := AppendDecisionFrameV2(nil, []Decision{{allow, signalNone}}, "v1")[4:]
	cases := map[string][]byte{
		"empty":            {},
		"status-only":      {0},
		"truncated-verlen": {0, 0},
		"truncated-ver":    {0, 0, 5, 'v'},
		"truncated-count":  good[:len(good)-3],
		"trailing-bytes":   append(append([]byte{}, good...), 0xFF),
		"unknown-status":   {7, 0, 0},
		"ratelimit-short":  {1, 0, 0},
	}
	for name, payload := range cases {
		_, _, err := DecodeResponsePayloadV2(payload, nil)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		var rle *RateLimitError
		if errors.As(err, &rle) {
			t.Errorf("%s: misread as a rate-limit response", name)
		}
	}
}

// TestFrameV2Serve: a client gets versioned responses, and the version
// follows a swap on the same connection.
func TestFrameV2Serve(t *testing.T) {
	nw := netsim.New()
	ln, err := nw.Listen("10.0.0.2", 81)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	svc := NewService(mustSnap(t, "v1"))
	go ServeFrames(ln, svc)
	ctx := context.Background()

	c2, err := nw.Dial(ctx, "10.0.0.1", "10.0.0.2:81")
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := NewFrameClientV2(c2)
	if err != nil {
		t.Fatal(err)
	}
	defer fc2.Close()

	qs := []Query{{Host: "h.test", Agent: "GPTBot", Path: "/"}}
	ds, version, err := fc2.Decide(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if version != "v1" || len(ds) != 1 {
		t.Fatalf("v2 decide: version %q, %d decisions", version, len(ds))
	}

	svc.Swap(mustSnap(t, "v2"))
	if _, version, err = fc2.Decide(qs, nil); err != nil || version != "v2" {
		t.Fatalf("after swap: version %q err %v", version, err)
	}
}

// TestStalledFrameClosesAtDeadline: a peer that sends the preamble and
// half a length prefix, then stalls, has its conn closed exactly
// FrameReadTimeout later. Two minutes are too long for the wall clock,
// so it runs only on synctest's (GOEXPERIMENT=synctest).
func TestStalledFrameClosesAtDeadline(t *testing.T) {
	if !syntheticClock {
		t.Skip("runs on the synthetic clock only: GOEXPERIMENT=synctest")
	}
	bubble(t, func() {
		nw := netsim.New()
		ln, err := nw.Listen("10.0.0.2", 81)
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- ServeFrames(ln, NewService(mustSnap(t, "v1"))) }()
		defer func() {
			ln.Close()
			<-served
		}()
		c, err := nw.Dial(context.Background(), "10.0.0.1", "10.0.0.2:81")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(append(FrameMagicV2[:], 8, 0)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if n, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read from a stalled frame's conn = %d, %v; want io.EOF", n, err)
		}
		if elapsed := time.Since(start); elapsed != FrameReadTimeout {
			t.Errorf("stalled conn closed after %v of synthetic time, want exactly %v", elapsed, FrameReadTimeout)
		}
	})
}

// TestAnswerByDeadlines: AnswerBy re-arms its conn whenever the deadline
// moves, so an exchange after an earlier one's by has passed, or with
// none, is answered. Against a peer that never answers, a by earlier
// than ctx's deadline fails at by with os.ErrDeadlineExceeded, which is
// no context error; a by later than ctx's deadline fails at ctx's with
// context.DeadlineExceeded, as Answer does. On synctest's clock each
// fails after exactly the earlier deadline.
func TestAnswerByDeadlines(t *testing.T) {
	bubble(t, func() {
		nw := netsim.New()
		ln, err := nw.Listen("10.0.0.2", 81)
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- ServeFrames(ln, NewService(mustSnap(t, "v1"))) }()
		hole, err := nw.Listen("10.0.0.3", 81)
		if err != nil {
			t.Fatal(err)
		}
		holed := make(chan error, 1)
		go func() {
			holed <- netsim.Serve(hole, func(c net.Conn) {
				io.Copy(io.Discard, c)
				c.Close()
			})
		}()
		defer func() {
			ln.Close()
			hole.Close()
			<-served
			<-holed
		}()
		dial := func(addr string) *FrameClientV2 {
			c, err := nw.Dial(context.Background(), "10.0.0.1", addr)
			if err != nil {
				t.Fatal(err)
			}
			fc, err := NewFrameClientV2(c)
			if err != nil {
				t.Fatal(err)
			}
			return fc
		}

		fc := dial("10.0.0.2:81")
		defer fc.Close()
		qs := []Query{{Host: "h.test", Agent: "GPTBot", Path: "/"}}
		for i, by := range []func() time.Time{
			func() time.Time { return time.Now().Add(50 * time.Millisecond) },
			func() time.Time { return time.Now().Add(50 * time.Millisecond) },
			func() time.Time { return time.Time{} },
		} {
			if _, _, err := fc.AnswerBy(context.Background(), by(), qs, nil); err != nil {
				t.Fatalf("exchange %d: %v", i, err)
			}
			time.Sleep(60 * time.Millisecond)
		}

		for _, c := range []struct {
			ctx, by time.Duration
			want    error
		}{
			{time.Second, 50 * time.Millisecond, os.ErrDeadlineExceeded},
			{50 * time.Millisecond, time.Second, context.DeadlineExceeded},
		} {
			fc := dial("10.0.0.3:81")
			ctx, cancel := context.WithTimeout(context.Background(), c.ctx)
			start := time.Now()
			_, _, err := fc.AnswerBy(ctx, start.Add(c.by), qs, nil)
			elapsed := time.Since(start)
			cancel()
			fc.Close()
			if !errors.Is(err, c.want) || (c.want == os.ErrDeadlineExceeded) == errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("ctx %v, by %v: %v, want %v", c.ctx, c.by, err, c.want)
			}
			if syntheticClock && elapsed != 50*time.Millisecond {
				t.Errorf("ctx %v, by %v: failed after %v of synthetic time, want exactly 50ms", c.ctx, c.by, elapsed)
			}
		}
	})
}

func mustSnap(t *testing.T, version string) *Snapshot {
	t.Helper()
	b := &Builder{}
	b.Add("h.test", HostConfig{})
	sn, err := b.Build(context.Background(), version, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}
