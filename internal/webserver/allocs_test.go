package webserver

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/netsim"
)

// TestGetFarmPageAllocs pins the cost of the simulation's unit of work:
// one netsim.Get of a farm page, which calls the farm in-process. It
// allocates nothing: the body Get returns is the page's own string.
func TestGetFarmPageAllocs(t *testing.T) {
	nw := netsim.New()
	f := newFarm(t, nw, "203.0.113.250")
	site, err := f.StartSite(Config{Domain: "allocs.test", IP: "203.0.113.251", Pages: ContentPages("allocs.test")})
	if err != nil {
		t.Fatal(err)
	}
	client := nw.HTTPClient("198.51.100.250")
	hdr := http.Header{"User-Agent": {"GPTBot/1.0"}}
	ctx := context.Background()
	get := func() {
		status, body, err := netsim.Get(ctx, client, site.Domain(), "/gallery.html", hdr)
		if err != nil || status != http.StatusOK || body == "" {
			t.Fatalf("Get = %d, %d bytes, %v", status, len(body), err)
		}
	}
	get() // fill the pools
	allocs := testing.AllocsPerRun(1000, get)
	t.Logf("%.2f allocs per Get", allocs)
	bound := 0.0
	if raceEnabled {
		bound = 1 // a pooled buffer the race detector dropped is made again
	}
	if allocs > bound {
		t.Errorf("%.2f allocations per Get of a farm page, want at most %.0f", allocs, bound)
	}
}

// TestLogSinceAllocs pins the cost of reading a site's log window, which
// the hot tier does once per wave: none, since a window is a view of the
// log, not a copy.
func TestLogSinceAllocs(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("window.test", "203.0.113.15"))
	client := nw.HTTPClient("198.51.100.72")
	for i := 0; i < 8; i++ {
		get(t, client, site.URL()+"/", "GPTBot/1.0")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if w := site.LogSince(2); len(w) != 6 {
			t.Fatalf("window of %d records, want 6", len(w))
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per LogSince, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestHostKey pins hostKey's normalization, and that the Host every
// client in the tree sends — lowercase, no port — costs no allocation.
func TestHostKey(t *testing.T) {
	for in, want := range map[string]string{
		"site.test":        "site.test",
		"Site.Test":        "site.test",
		"site.test:80":     "site.test",
		"SITE.test:8080":   "site.test",
		"203.0.113.9":      "203.0.113.9",
		"[2001:db8::1]":    "[2001:db8::1]",
		"[2001:db8::1]:80": "2001:db8::1",
	} {
		if got := hostKey(in); got != want {
			t.Errorf("hostKey(%q) = %q, want %q", in, got, want)
		}
	}
	for _, h := range []string{"site.test", "site.test:80"} {
		if allocs := testing.AllocsPerRun(100, func() { hostKey(h) }); allocs != 0 {
			t.Errorf("hostKey(%q): %.1f allocations, want 0", h, allocs)
		}
	}
}
