package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServeHandsBodyToHandler: a handler reads as much of the request
// body as it wants and ServeConn discards the rest before answering, so
// the next request on the keep-alive connection parses cleanly — also
// after a body larger than the ring, which the client can only finish
// writing once the server drains it.
func TestServeHandsBodyToHandler(t *testing.T) {
	nw := New()
	ln, err := nw.Listen("203.0.113.80", 80)
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// ?read=N reads N body bytes (all of them when absent).
		limit := r.ContentLength
		if s := r.URL.Query().Get("read"); s != "" {
			limit, _ = strconv.ParseInt(s, 10, 64)
		}
		got, err := io.ReadAll(io.LimitReader(r.Body, limit))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "%s %d %s", r.URL.Path, len(got), got[:min(len(got), 8)])
	})
	done := make(chan error, 1)
	go func() {
		done <- Serve(ln, func(c net.Conn) { ServeConn(c, h) })
	}()
	client := nw.HTTPClient("198.51.100.80")

	big := bytes.Repeat([]byte("abcdefgh"), 300<<10/8) // streamed, 300 KiB
	cases := []struct {
		target string
		body   []byte
		want   string
	}{
		{"/all", []byte("hello"), "/all 5 hello"},
		{"/part?read=2", []byte("hello"), "/part 2 he"},
		{"/none?read=0", []byte("hello"), "/none 0 "},
		{"/big?read=3", big, "/big 3 abc"},
		{"/big", big, fmt.Sprintf("/big %d abcdefgh", len(big))},
		{"/empty", nil, "/empty 0 "},
	}
	for _, tc := range cases {
		resp, err := client.Post("http://203.0.113.80"+tc.target, "text/plain", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.target, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(got) != tc.want {
			t.Fatalf("POST %s: %d %q (%v), want %q", tc.target, resp.StatusCode, got, err, tc.want)
		}
	}

	// An idle keep-alive conn and a conn mid-request both close with the
	// listener, and Serve returns once their serve loops have.
	idle, err := nw.Dial(context.Background(), "198.51.100.81", "203.0.113.80:80")
	if err != nil {
		t.Fatal(err)
	}
	half, err := nw.Dial(context.Background(), "198.51.100.82", "203.0.113.80:80")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(half, "POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 10\r\n\r\nabc")
	time.Sleep(10 * time.Millisecond) // let both conns reach their serve loops
	ln.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
	for name, c := range map[string]net.Conn{"idle": idle, "mid-request": half} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil || strings.Contains(err.Error(), "timeout") {
			t.Fatalf("%s conn after Serve returned: read %d, %v; want the conn closed", name, n, err)
		}
		c.Close()
	}
}
