package policyd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// jsonClientOn binds h at a netsim address and returns a JSONClient
// that reaches it through the in-process netsim client.
func jsonClientOn(t testing.TB, h http.Handler) *JSONClient {
	t.Helper()
	nw := netsim.New()
	release, err := nw.Handle("203.0.113.80", 80, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	nw.Register("policyd.test", "203.0.113.80")
	return &JSONClient{Client: nw.HTTPClient("198.51.100.80"), URL: "http://policyd.test"}
}

// TestJSONClientMatchesSnapshot: over NewHandler, one query (GET
// /v1/decide) and a batch (POST /v1/batch) answer with the decisions
// Snapshot.Decide gives and the snapshot's version.
func TestJSONClientMatchesSnapshot(t *testing.T) {
	snap := buildTestSnapshot(t)
	c := jsonClientOn(t, NewHandler(NewService(snap)))
	var qs []Query
	for _, h := range append(snap.Hosts(), "unknown.test", "BLOCKED.test") {
		for _, a := range []string{"GPTBot", "CCBot", "Mozilla/5.0 (compatible; OffRoster/1.0)"} {
			for _, p := range []string{"/", "/admin/x", "/gallery/a b.png", "/search?q=x&y=%2F"} {
				qs = append(qs, Query{h, a, p})
			}
		}
	}
	ctx := context.Background()
	check := func(what string, qs []Query, got []Decision, version string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if version != snap.Version {
			t.Fatalf("%s: version %q, want %q", what, version, snap.Version)
		}
		if len(got) != len(qs) {
			t.Fatalf("%s: %d decisions for %d queries", what, len(got), len(qs))
		}
		for i, q := range qs {
			if want := snap.Decide(q); got[i] != want {
				t.Fatalf("%s: %+v answered %v, Snapshot.Decide %v", what, q, got[i], want)
			}
		}
	}
	for _, q := range qs {
		one := []Query{q}
		ds, version, err := c.Answer(ctx, one, nil)
		check("one query", one, ds, version, err)
	}
	ds, version, err := c.Answer(ctx, qs, nil)
	check("batch", qs, ds, version, err)
	// Answers append to out.
	prefix := []Decision{{Block, signalBlocker}}
	ds, version, err = c.Answer(ctx, qs[:2], prefix)
	check("appended batch", qs[:2], ds[1:], version, err)
	if ds[0] != prefix[0] {
		t.Fatalf("Answer overwrote out's prefix: %v", ds[0])
	}
}

// TestJSONClientRateLimited: a 429 from an Answerer's quota error comes
// back as a *RateLimitError with its exact delay, from X-Retry-After-Ms,
// on both paths.
func TestJSONClientRateLimited(t *testing.T) {
	c := jsonClientOn(t, NewHandlerFor(limitedAnswerer{&RateLimitError{RetryAfter: 37 * time.Millisecond}}, mWireJSON, mJSONStages, nil))
	for _, n := range []int{1, 3} {
		qs := make([]Query, n)
		for i := range qs {
			qs[i] = Query{"plain.test", "GPTBot", "/"}
		}
		_, _, err := c.Answer(context.Background(), qs, nil)
		var limited *RateLimitError
		if !errors.As(err, &limited) || limited.RetryAfter != 37*time.Millisecond {
			t.Fatalf("%d queries: err %v, want a RateLimitError of 37ms", n, err)
		}
	}
}

// TestRetryAfter: X-Retry-After-Ms wins, then Retry-After seconds, then
// 100 ms; a value that is not a positive integer fitting a Duration does
// not count.
func TestRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		ms, secs string
		want     time.Duration
	}{
		{"37", "1", 37 * time.Millisecond},
		{"", "2", 2 * time.Second},
		{"0", "2", 2 * time.Second},
		{"-5", "x", defaultRetryAfter},
		{"9223372036854775807", "9223372036854775807", defaultRetryAfter},
		{"", "", defaultRetryAfter},
	} {
		h := http.Header{}
		h.Set("X-Retry-After-Ms", tc.ms)
		h.Set("Retry-After", tc.secs)
		if got := retryAfter(h); got != tc.want {
			t.Errorf("retryAfter(ms %q, secs %q) = %v, want %v", tc.ms, tc.secs, got, tc.want)
		}
	}
}

// TestJSONClientRejectsBadAnswers: a short, long or unknown-decision
// answer, or any status but 200 and 429, is an error, and out keeps only
// what the caller passed in.
func TestJSONClientRejectsBadAnswers(t *testing.T) {
	type reply struct {
		status int
		body   string
	}
	var next reply
	c := jsonClientOn(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(next.status)
		fmt.Fprint(w, next.body)
	}))
	two := []Query{{"a.test", "GPTBot", "/"}, {"b.test", "GPTBot", "/"}}
	for _, tc := range []struct {
		name string
		qs   []Query
		r    reply
		want string // in the error
	}{
		{"short batch", two, reply{200, `{"decisions":[{"action":"allow","signal":"none"}]}`}, "1 decisions for 2 queries"},
		{"long batch", two[:0], reply{200, `{"decisions":[{"action":"allow","signal":"none"}]}`}, "1 decisions for 0 queries"},
		{"unknown action", two, reply{200, `{"decisions":[{"action":"allow","signal":"none"},{"action":"maybe","signal":"none"}]}`}, `unknown decision "maybe"`},
		{"unknown signal", two[:1], reply{200, `{"action":"deny","signal":"vibes"}`}, `unknown decision "deny"/"vibes"`},
		{"garbled", two[:1], reply{200, `{"action":`}, "decoding answer"},
		{"server error", two, reply{502, "replica down\n"}, "502 Bad Gateway: replica down"},
	} {
		next = tc.r
		prefix := []Decision{{Deny, signalMeta}}
		out, _, err := c.Answer(context.Background(), tc.qs, prefix)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
		if len(out) != 1 || out[0] != prefix[0] {
			t.Errorf("%s: out %v, want the caller's prefix alone", tc.name, out)
		}
	}
}
