package webserver

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/netsim"
)

func (f *Farm) connCount() int {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	return len(f.conns)
}

// TestKeepAliveReuseAfter421 pins that a 421 does not poison a
// keep-alive connection: after a misdirected request the same pooled
// conn must serve correctly-addressed requests, and the dispatch memo
// must not leak the wrong site across the Host switch.
func TestKeepAliveReuseAfter421(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")
	site, err := farm.StartSite(WildcardDisallowSite("known.test", "203.0.113.80"))
	if err != nil {
		t.Fatal(err)
	}
	nw.Register("ghost.test", "203.0.113.250") // resolves to the farm, no site claims it

	client := nw.HTTPClient("198.51.100.95")
	// Same URL host (= same client pool key, same conn), alternating Host
	// headers: ghost → 421, known → 200, ghost → 421, known → 200.
	for round := 0; round < 2; round++ {
		req, err := http.NewRequest(http.MethodGet, "http://known.test/robots.txt", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = "ghost.test"
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("round %d ghost: %v", round, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("round %d ghost = %d, want 421", round, resp.StatusCode)
		}

		resp, body := get(t, client, "http://known.test/robots.txt", "GPTBot/1.0")
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, "Disallow: /") {
			t.Fatalf("round %d known = %d %q, want the site's robots.txt", round, resp.StatusCode, body)
		}
	}
	if got := farm.Unmatched(); got != 2 {
		t.Fatalf("Unmatched = %d, want 2", got)
	}
	if got := farm.connCount(); got != 1 {
		t.Fatalf("farm saw %d connections, want 1 reused across the 421s", got)
	}
	if recs := site.Log(); len(recs) != 2 {
		t.Fatalf("site log = %d records, want only the 2 matched requests", len(recs))
	}
}

// TestFastServerDrainsPostAcrossRing sends a POST body several times the
// 32KiB netsim ring at a farm site. Content sites have no POST handler,
// but the server must still drain the body (otherwise the client blocks
// writing into a full ring while the server blocks writing the response)
// and then keep serving the connection.
func TestFastServerDrainsPostAcrossRing(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.251")
	if _, err := farm.StartSite(WildcardDisallowSite("upload.test", "203.0.113.81")); err != nil {
		t.Fatal(err)
	}

	client := nw.HTTPClient("198.51.100.96")
	payload := bytes.Repeat([]byte("x"), 100<<10)
	resp, err := client.Post("http://upload.test/", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The connection must still be usable for a normal request.
	resp2, body := get(t, client, "http://upload.test/robots.txt", "GPTBot/1.0")
	if resp2.StatusCode != http.StatusOK || !strings.Contains(body, "Disallow: /") {
		t.Fatalf("follow-up after big POST = %d %q", resp2.StatusCode, body)
	}
	if got := farm.connCount(); got != 1 {
		t.Fatalf("farm saw %d connections, want 1", got)
	}
}
