package webserver

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
)

// startSite hosts cfg as the only site of a farm bound to the site's own
// address; the farm closes with the test.
func startSite(t *testing.T, nw *netsim.Network, cfg Config) *Site {
	t.Helper()
	site, err := newFarm(t, nw, cfg.IP).StartSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func get(t *testing.T, client *http.Client, url, ua string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ua != "" {
		req.Header.Set("User-Agent", ua)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestSiteServesContentAndLogs(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("art.test", "203.0.113.1"))

	client := nw.HTTPClient("198.51.100.9")
	resp, body := get(t, client, site.URL()+"/robots.txt", "GPTBot/1.0")
	if resp.StatusCode != 200 {
		t.Fatalf("robots.txt status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "User-agent: *") {
		t.Fatalf("robots body = %q", body)
	}
	resp, body = get(t, client, site.URL()+"/", "GPTBot/1.0")
	if resp.StatusCode != 200 || !strings.Contains(body, "Welcome") {
		t.Fatalf("index fetch: %d %q", resp.StatusCode, body[:40])
	}
	resp, _ = get(t, client, site.URL()+"/missing", "GPTBot/1.0")
	if resp.StatusCode != 404 {
		t.Fatalf("missing page status = %d", resp.StatusCode)
	}

	log := site.Log()
	if len(log) != 3 {
		t.Fatalf("log entries = %d, want 3", len(log))
	}
	for _, rec := range log {
		if rec.RemoteIP != "198.51.100.9" {
			t.Errorf("logged remote IP = %q", rec.RemoteIP)
		}
		if !strings.Contains(rec.UserAgent, "GPTBot") {
			t.Errorf("logged UA = %q", rec.UserAgent)
		}
	}
	if log[0].Path != "/robots.txt" || log[0].Status != 200 {
		t.Errorf("first record = %+v", log[0])
	}
	if log[2].Status != 404 {
		t.Errorf("third record status = %d", log[2].Status)
	}
}

func TestNoRobotsSite(t *testing.T) {
	nw := netsim.New()
	cfg := Config{Domain: "bare.test", IP: "203.0.113.2", Pages: ContentPages("bare.test")}
	site := startSite(t, nw, cfg)
	client := nw.HTTPClient("198.51.100.10")
	resp, _ := get(t, client, site.URL()+"/robots.txt", "CCBot/2.0")
	if resp.StatusCode != 404 {
		t.Fatalf("robots on bare site = %d, want 404", resp.StatusCode)
	}
}

func TestSetRobotsAtRuntime(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, Config{Domain: "dyn.test", IP: "203.0.113.3",
		Pages: ContentPages("dyn.test")})
	client := nw.HTTPClient("198.51.100.11")
	resp, _ := get(t, client, site.URL()+"/robots.txt", "x")
	if resp.StatusCode != 404 {
		t.Fatal("expected no robots initially")
	}
	robots := "User-agent: GPTBot\nDisallow: /\n"
	site.SetRobots(&robots)
	resp, body := get(t, client, site.URL()+"/robots.txt", "x")
	if resp.StatusCode != 200 || !strings.Contains(body, "GPTBot") {
		t.Fatalf("updated robots: %d %q", resp.StatusCode, body)
	}
}

func TestBlockerScreensRequests(t *testing.T) {
	nw := netsim.New()
	cfg := WildcardDisallowSite("blocked.test", "203.0.113.4")
	cfg.Blocker = BlockerFunc(func(r *http.Request) *BlockDecision {
		if strings.Contains(strings.ToLower(r.UserAgent()), "claudebot") {
			return &BlockDecision{Status: 403, Body: "<html>blocked</html>"}
		}
		return nil
	})
	site := startSite(t, nw, cfg)
	client := nw.HTTPClient("198.51.100.12")

	resp, body := get(t, client, site.URL()+"/", "ClaudeBot/1.0")
	if resp.StatusCode != 403 || !strings.Contains(body, "blocked") {
		t.Fatalf("blocked fetch: %d %q", resp.StatusCode, body)
	}
	// The blocker screens robots.txt too, like real reverse proxies.
	resp, _ = get(t, client, site.URL()+"/robots.txt", "ClaudeBot/1.0")
	if resp.StatusCode != 403 {
		t.Fatalf("robots for blocked UA = %d, want 403", resp.StatusCode)
	}
	// Other agents pass.
	resp, _ = get(t, client, site.URL()+"/", "GPTBot/1.0")
	if resp.StatusCode != 200 {
		t.Fatalf("unblocked fetch = %d", resp.StatusCode)
	}
}

func TestRequestsMatchingAndObservedAgents(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("obs.test", "203.0.113.5"))
	for i, ua := range []string{"GPTBot/1.0", "ClaudeBot/1.0", "GPTBot/1.0"} {
		ip := "198.51.100." + string(rune('1'+i))
		client := nw.HTTPClient(ip)
		get(t, client, site.URL()+"/", ua)
	}
	if got := len(site.RequestsMatching("gptbot")); got != 2 {
		t.Fatalf("GPTBot requests = %d, want 2", got)
	}
	agents := site.ObservedAgents()
	if len(agents) != 2 {
		t.Fatalf("observed agents = %v", agents)
	}
}

func TestPerAgentDisallowSiteRobots(t *testing.T) {
	cfg := PerAgentDisallowSite("x.test", "203.0.113.6", []string{"GPTBot", "CCBot"})
	if !strings.Contains(*cfg.RobotsTxt, "User-agent: GPTBot\nDisallow: /") {
		t.Fatalf("per-agent robots missing GPTBot: %q", *cfg.RobotsTxt)
	}
	if strings.Contains(*cfg.RobotsTxt, "User-agent: *") {
		t.Fatal("per-agent site must not use the wildcard")
	}
}

func TestStartValidation(t *testing.T) {
	farm := newFarm(t, netsim.New(), "203.0.113.250")
	if _, err := farm.StartSite(Config{IP: "1.2.3.4"}); err == nil {
		t.Fatal("missing domain must fail")
	}
	if _, err := farm.StartSite(Config{Domain: "x.test"}); err == nil {
		t.Fatal("missing IP must fail")
	}
	if _, err := farm.StartSite(Config{Domain: "x.test", IP: "bogus"}); err == nil {
		t.Fatal("bad IP must fail")
	}
}

func TestContentPagesInterlinked(t *testing.T) {
	pages := ContentPages("linked.test")
	if _, ok := pages["/"]; !ok {
		t.Fatal("no index page")
	}
	if !strings.Contains(pages["/"].Body, "/gallery.html") {
		t.Fatal("index must link to the gallery")
	}
	if pages["/images/art1.png"].ContentType != "image/png" {
		t.Fatal("image content type wrong")
	}
}

// TestLogOrderingDeterministicPerConnection pins the log contract the
// scenario engine's monthly windowing relies on: requests issued
// sequentially by one client append in issue order, and replaying the
// same sequence on a fresh site yields an identical log (paths, status,
// bytes).
func TestLogOrderingDeterministicPerConnection(t *testing.T) {
	paths := []string{"/robots.txt", "/", "/about.html", "/gallery.html", "/missing", "/robots.txt"}
	capture := func() []Record {
		nw := netsim.New()
		site := startSite(t, nw, WildcardDisallowSite("order.test", "203.0.113.7"))
		client := nw.HTTPClient("198.51.100.40")
		for _, p := range paths {
			get(t, client, site.URL()+p, "GPTBot/1.0")
		}
		if site.LogLen() != len(site.Log()) {
			t.Fatalf("LogLen = %d, len(Log) = %d; must agree when quiescent",
				site.LogLen(), len(site.Log()))
		}
		return site.Log()
	}
	first := capture()
	if len(first) != len(paths) {
		t.Fatalf("logged %d records, want %d", len(first), len(paths))
	}
	for i, rec := range first {
		if rec.Path != paths[i] {
			t.Fatalf("record %d = %s, want %s (sequential requests must log in order)",
				i, rec.Path, paths[i])
		}
	}
	second := capture()
	for i := range first {
		a, b := first[i], second[i]
		if a.Path != b.Path || a.Status != b.Status || a.Bytes != b.Bytes ||
			a.RemoteIP != b.RemoteIP || a.UserAgent != b.UserAgent {
			t.Fatalf("replay diverged at record %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestLogSurvivesConnectionChurn forces a fresh connection per request
// (the client drops its pool after each) so every request's shard is
// retired when its connection closes, and asserts the merged log still holds every record
// in issue order — retirement must move records, never drop or reorder
// them.
func TestLogSurvivesConnectionChurn(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("churn.test", "203.0.113.9"))
	client := nw.HTTPClient("198.51.100.45")
	var want []string
	paths := []string{"/robots.txt", "/", "/about.html", "/gallery.html"}
	for round := 0; round < 5; round++ {
		for _, p := range paths {
			get(t, client, site.URL()+p, "GPTBot/1.0")
			client.CloseIdleConnections()
			want = append(want, p)
		}
	}
	log := site.Log()
	if len(log) != len(want) {
		t.Fatalf("logged %d records, want %d", len(log), len(want))
	}
	for i, rec := range log {
		if rec.Path != want[i] {
			t.Fatalf("record %d = %s, want %s (retired shards must preserve order)",
				i, rec.Path, want[i])
		}
	}
}

// TestLogOrderingConcurrentClientsPreserved checks that under concurrent
// clients each connection's own requests still appear in issue order,
// even though the interleaving across clients is unspecified.
func TestLogOrderingConcurrentClientsPreserved(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("interleave.test", "203.0.113.8"))
	paths := []string{"/robots.txt", "/", "/about.html", "/gallery.html"}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ip := fmt.Sprintf("198.51.100.%d", 50+c)
			client := nw.HTTPClient(ip)
			for _, p := range paths {
				req, err := http.NewRequest(http.MethodGet, site.URL()+p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("User-Agent", fmt.Sprintf("TestBot-%d/1.0", c))
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	log := site.Log()
	if len(log) != clients*len(paths) {
		t.Fatalf("logged %d records, want %d", len(log), clients*len(paths))
	}
	perClient := map[string][]string{}
	for _, rec := range log {
		perClient[rec.RemoteIP] = append(perClient[rec.RemoteIP], rec.Path)
	}
	if len(perClient) != clients {
		t.Fatalf("saw %d client IPs, want %d", len(perClient), clients)
	}
	for ip, got := range perClient {
		for i := range paths {
			if got[i] != paths[i] {
				t.Fatalf("client %s order %v, want %v", ip, got, paths)
			}
		}
	}
}

// TestLogSinceIncrementalWindows checks the O(window) view against the
// full merged log: every (mark, now) window must equal the same slice
// of Log(), including across connection churn that retires shards into
// the sorted fallback.
func TestLogSinceIncrementalWindows(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("since.test", "203.0.113.12"))
	client := nw.HTTPClient("198.51.100.70")

	paths := []string{"/robots.txt", "/", "/about.html", "/gallery.html"}
	mark := site.LogLen()
	if mark != 0 {
		t.Fatalf("fresh site LogLen = %d", mark)
	}
	var allWindows []Record
	for round := 0; round < 6; round++ {
		for i := 0; i <= round%len(paths); i++ {
			get(t, client, site.URL()+paths[i], "GPTBot/1.0")
			client.CloseIdleConnections()
		}
		next := site.LogLen()
		window := site.LogSince(mark)
		if len(window) != next-mark {
			t.Fatalf("round %d: window has %d records, want %d", round, len(window), next-mark)
		}
		allWindows = append(allWindows, window...)
		mark = next
	}
	full := site.Log()
	if len(full) != len(allWindows) {
		t.Fatalf("windows cover %d records, full log has %d", len(allWindows), len(full))
	}
	for i := range full {
		if full[i] != allWindows[i] {
			t.Fatalf("record %d: window view %+v != log view %+v", i, allWindows[i], full[i])
		}
	}
	if tail := site.LogSince(site.LogLen()); len(tail) != 0 {
		t.Fatalf("LogSince(now) returned %d records, want 0", len(tail))
	}
}

// TestLogSinceAcrossConcurrentClients checks that a LogSince window
// taken after concurrent traffic equals the suffix of the full log.
func TestLogSinceAcrossConcurrentClients(t *testing.T) {
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("since2.test", "203.0.113.13"))

	hammer := func(clients int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := nw.HTTPClient(fmt.Sprintf("198.51.100.%d", 80+c))
				for i := 0; i < 5; i++ {
					get(t, client, site.URL()+"/about.html", fmt.Sprintf("SinceBot-%d/1.0", c))
				}
			}(c)
		}
		wg.Wait()
	}
	hammer(4)
	mark := site.LogLen()
	hammer(6)
	window := site.LogSince(mark)
	full := site.Log()
	if len(window) != len(full)-mark {
		t.Fatalf("window %d records, want %d", len(window), len(full)-mark)
	}
	for i, rec := range window {
		if rec != full[mark+i] {
			t.Fatalf("window[%d] = %+v, want %+v", i, rec, full[mark+i])
		}
	}
}
