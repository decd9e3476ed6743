package webserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
)

func newFarm(t *testing.T, nw *netsim.Network, ip string) *Farm {
	t.Helper()
	f, err := NewFarm(nw, ip)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFarmDispatchesByHost hosts several sites behind one listener and
// checks that each request reaches its own site — content, robots.txt,
// blocker, and the per-site log with correct source-IP attribution.
func TestFarmDispatchesByHost(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")

	a, err := farm.StartSite(WildcardDisallowSite("farm-a.test", "203.0.113.61"))
	if err != nil {
		t.Fatal(err)
	}
	bCfg := Config{Domain: "farm-b.test", IP: "203.0.113.62", Pages: ContentPages("farm-b.test")}
	bCfg.Blocker = BlockerFunc(func(r *http.Request) *BlockDecision {
		if strings.Contains(r.UserAgent(), "Bytespider") {
			return &BlockDecision{Status: 403, Body: "<html>blocked</html>"}
		}
		return nil
	})
	b, err := farm.StartSite(bCfg)
	if err != nil {
		t.Fatal(err)
	}

	client := nw.HTTPClient("198.51.100.90")
	resp, body := get(t, client, a.URL()+"/robots.txt", "GPTBot/1.0")
	if resp.StatusCode != 200 || !strings.Contains(body, "User-agent: *") {
		t.Fatalf("site a robots = %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, client, b.URL()+"/robots.txt", "GPTBot/1.0")
	if resp.StatusCode != 404 {
		t.Fatalf("site b must have no robots.txt, got %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, client, b.URL()+"/", "GPTBot/1.0")
	if resp.StatusCode != 200 || !strings.Contains(body, "farm-b.test") {
		t.Fatalf("site b index = %d %q", resp.StatusCode, body)
	}
	resp, _ = get(t, client, b.URL()+"/", "Bytespider/1.0")
	if resp.StatusCode != 403 {
		t.Fatalf("site b blocker = %d, want 403", resp.StatusCode)
	}

	aLog, bLog := a.Log(), b.Log()
	if len(aLog) != 1 || aLog[0].Path != "/robots.txt" {
		t.Fatalf("site a log = %+v", aLog)
	}
	if len(bLog) != 3 {
		t.Fatalf("site b log = %d records, want 3", len(bLog))
	}
	for _, rec := range append(aLog, bLog...) {
		if rec.RemoteIP != "198.51.100.90" {
			t.Fatalf("record attributes source %q, want the client IP", rec.RemoteIP)
		}
	}
	if farm.Len() != 2 {
		t.Fatalf("farm.Len() = %d, want 2", farm.Len())
	}
}

// TestFarmServesAliasedSiteIPs fetches sites by their advertised
// literal IPs: the farm answers there through its own binding at each
// site IP, without per-site servers.
func TestFarmServesAliasedSiteIPs(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")
	if _, err := farm.StartSite(WildcardDisallowSite("alias-a.test", "203.0.113.71")); err != nil {
		t.Fatal(err)
	}
	client := nw.HTTPClient("198.51.100.91")
	resp, body := get(t, client, "http://203.0.113.71/robots.txt", "GPTBot/1.0")
	if resp.StatusCode != 200 || !strings.Contains(body, "Disallow: /") {
		t.Fatalf("dial by site IP = %d %q", resp.StatusCode, body)
	}
}

// TestFarmAddressesRefuseDials: a farm is bound at its IP and at each
// site IP as an HTTP handler, not a listener, so a Get to either is
// served in-process while a dial to either is refused — no fetch from
// the farm can go over a wire conn.
func TestFarmAddressesRefuseDials(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")
	client := nw.HTTPClient("198.51.100.91")
	for _, ip := range []string{"203.0.113.250", "203.0.113.73"} {
		if _, err := farm.StartSite(Config{Domain: "dial-" + ip + ".test", IP: ip,
			Pages: map[string]Page{"/": {Body: ip}}}); err != nil {
			t.Fatal(err)
		}
		if status, body, err := netsim.Get(context.Background(), client, ip, "/", nil); err != nil || status != 200 || body != ip {
			t.Errorf("Get of %s = %d, %q, %v; want the site's page", ip, status, body, err)
		}
		if c, err := nw.Dial(context.Background(), "198.51.100.91", ip+":80"); err == nil || !strings.Contains(err.Error(), "connection refused") {
			if c != nil {
				c.Close()
			}
			t.Errorf("Dial to %s = %v, want connection refused", ip, err)
		}
	}
}

// TestFarmUnknownHost pins the misdirected-request contract: a Host no
// site claims gets 421 and increments farm_unmatched_total.
func TestFarmUnknownHost(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")
	if _, err := farm.StartSite(WildcardDisallowSite("known.test", "203.0.113.72")); err != nil {
		t.Fatal(err)
	}
	nw.Register("ghost.test", "203.0.113.250") // resolves to the farm, but no site claims it
	client := nw.HTTPClient("198.51.100.92")
	before := mFarmUnmatched.Value()
	resp, body := get(t, client, "http://ghost.test/", "GPTBot/1.0")
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("unknown host = %d %q, want 421", resp.StatusCode, body)
	}
	if got := mFarmUnmatched.Value() - before; got != 1 {
		t.Fatalf("farm_unmatched_total grew by %d, want 1", got)
	}
}

// TestFarmValidationAndDuplicates: a duplicate host registration fails
// with a clear error instead of silently shadowing the earlier site
// (TestStartValidation covers the per-Config checks).
func TestFarmValidationAndDuplicates(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")
	first, err := farm.StartSite(WildcardDisallowSite("dup.test", "203.0.113.74"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := farm.StartSite(WildcardDisallowSite("DUP.test", "203.0.113.75")); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate host err = %v, want already-registered error", err)
	}
	// The original site still serves.
	client := nw.HTTPClient("198.51.100.93")
	if resp, _ := get(t, client, first.URL()+"/robots.txt", "x"); resp.StatusCode != 200 {
		t.Fatalf("original site broken after duplicate rejection: %d", resp.StatusCode)
	}
}

// TestFarmRemoveMidRun exercises the scenario-engine lifecycle: sites
// leave and join while the farm keeps serving, a removed site's IP is
// released (a netsim request is refused), its log stays readable, and
// the host becomes registerable again. A removed site that shared the
// farm IP instead answers 421 — the farm's binding survives, the Host
// mapping is gone.
func TestFarmRemoveMidRun(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")
	s1, err := farm.StartSite(WildcardDisallowSite("cycle.test", "203.0.113.76"))
	if err != nil {
		t.Fatal(err)
	}
	client := nw.HTTPClient("198.51.100.94")
	if resp, _ := get(t, client, s1.URL()+"/robots.txt", "x"); resp.StatusCode != 200 {
		t.Fatalf("pre-remove fetch = %d", resp.StatusCode)
	}
	if err := s1.Close(); err != nil { // Site.Close delegates to farm.Remove
		t.Fatal(err)
	}
	if _, _, err := netsim.Get(context.Background(), client, s1.Domain(), "/robots.txt", nil); err == nil ||
		!strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("Get after removal = %v, want the released site IP refused", err)
	}
	if got := len(s1.Log()); got != 1 {
		t.Fatalf("removed site's log = %d records, want 1 (still readable)", got)
	}
	// A site sharing the farm's own IP keeps the farm bound there;
	// removal turns its Host into a 421.
	sh, err := farm.StartSite(Config{Domain: "shared-rm.test", IP: "203.0.113.250",
		Pages: map[string]Page{"/": {Body: "<html>x</html>"}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, client, sh.URL()+"/", "x"); resp.StatusCode != 200 {
		t.Fatalf("shared-IP pre-remove = %d", resp.StatusCode)
	}
	sh.Close()
	if resp, _ := get(t, client, sh.URL()+"/", "x"); resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("shared-IP post-remove = %d, want 421", resp.StatusCode)
	}
	if status, _, err := netsim.Get(context.Background(), client, sh.Domain(), "/", nil); err != nil || status != http.StatusMisdirectedRequest {
		t.Fatalf("shared-IP post-remove Get = %d, %v, want 421", status, err)
	}
	if err := farm.Remove(s1); err != nil {
		t.Fatal("double remove must be a no-op")
	}
	// The host and IP are free again.
	s2, err := farm.StartSite(Config{Domain: "cycle.test", IP: "203.0.113.76",
		Pages: map[string]Page{"/": {Body: "<html>fresh</html>"}}})
	if err != nil {
		t.Fatalf("re-register removed host: %v", err)
	}
	if resp, body := get(t, client, s2.URL()+"/", "x"); resp.StatusCode != 200 || !strings.Contains(body, "fresh") {
		t.Fatalf("re-registered site = %d %q", resp.StatusCode, body)
	}
	if got := len(s2.Log()); got != 1 {
		t.Fatalf("fresh site inherited a log? %d records, want 1", got)
	}
}

// TestFarmPerSiteLogOrderDeterministic pins the log contract under the
// shared listener: sequential requests from one client land in each
// site's log in issue order, and a replay produces a record-for-record
// identical pair of logs — the determinism the measurement windows and
// scenario flushes rely on, now with two sites interleaving on one
// accept loop.
func TestFarmPerSiteLogOrderDeterministic(t *testing.T) {
	paths := []string{"/robots.txt", "/", "/about.html", "/gallery.html", "/missing"}
	capture := func() ([]Record, []Record) {
		nw := netsim.New()
		farm := newFarm(t, nw, "203.0.113.250")
		a, err := farm.StartSite(WildcardDisallowSite("det-a.test", "203.0.113.77"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := farm.StartSite(WildcardDisallowSite("det-b.test", "203.0.113.78"))
		if err != nil {
			t.Fatal(err)
		}
		client := nw.HTTPClient("198.51.100.95")
		for _, p := range paths { // alternate sites per request
			get(t, client, a.URL()+p, "GPTBot/1.0")
			get(t, client, b.URL()+p, "GPTBot/1.0")
		}
		return a.Log(), b.Log()
	}
	a1, b1 := capture()
	a2, b2 := capture()
	for _, logs := range [][2][]Record{{a1, a2}, {b1, b2}} {
		first, second := logs[0], logs[1]
		if len(first) != len(paths) || len(second) != len(paths) {
			t.Fatalf("log lengths = %d, %d, want %d", len(first), len(second), len(paths))
		}
		for i := range first {
			if first[i].Path != paths[i] {
				t.Fatalf("record %d = %s, want %s (issue order)", i, first[i].Path, paths[i])
			}
			if first[i] != second[i] {
				t.Fatalf("replay diverged at %d: %+v vs %+v", i, first[i], second[i])
			}
		}
	}
}

// TestFarmConcurrentRegisterRemoveVsRequests races churn (sites joining
// and leaving) against in-flight requests to a stable site, under -race.
// The stable site must answer every request and log exactly one record
// per request; churn-site requests may observe 200 or 421.
func TestFarmConcurrentRegisterRemoveVsRequests(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.250")
	stable, err := farm.StartSite(WildcardDisallowSite("stable.test", "203.0.113.79"))
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds+rounds)

	// Churner: register and remove a revolving set of sites.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			cfg := Config{
				Domain: fmt.Sprintf("churn-%d.test", i%8),
				IP:     fmt.Sprintf("203.0.113.%d", 100+i%8),
				Pages:  map[string]Page{"/": {Body: "<html>churn</html>"}},
			}
			s, err := farm.StartSite(cfg)
			if err != nil {
				errs <- fmt.Errorf("churn register: %w", err)
				return
			}
			if err := farm.Remove(s); err != nil {
				errs <- fmt.Errorf("churn remove: %w", err)
				return
			}
		}
	}()
	// Clients: hammer the stable site, and poke churn hosts.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := nw.HTTPClient(fmt.Sprintf("198.51.100.%d", 110+c))
			for i := 0; i < rounds; i++ {
				resp, err := client.Get(stable.URL() + "/robots.txt")
				if err != nil {
					errs <- fmt.Errorf("stable fetch: %w", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("stable fetch status %d", resp.StatusCode)
					return
				}
				if c == 0 {
					req, _ := http.NewRequest(http.MethodGet, "http://203.0.113.250/", nil)
					req.Host = fmt.Sprintf("churn-%d.test", i%8)
					resp, err := client.Do(req)
					if err != nil {
						errs <- fmt.Errorf("churn fetch: %w", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 && resp.StatusCode != http.StatusMisdirectedRequest {
						errs <- fmt.Errorf("churn fetch status %d", resp.StatusCode)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(stable.Log()); got != clients*rounds {
		t.Fatalf("stable site logged %d records, want %d", got, clients*rounds)
	}
}

// TestFarmCloseStopsServing pins Close semantics: idempotent, sites
// unregistered, every address released (a request to the site or the
// farm IP is refused), further StartSite calls fail.
func TestFarmCloseStopsServing(t *testing.T) {
	nw := netsim.New()
	farm, err := NewFarm(nw, "203.0.113.250")
	if err != nil {
		t.Fatal(err)
	}
	site, err := farm.StartSite(WildcardDisallowSite("bye.test", "203.0.113.83"))
	if err != nil {
		t.Fatal(err)
	}
	client := nw.HTTPClient("198.51.100.97")
	get(t, client, site.URL()+"/robots.txt", "x")
	if err := farm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := farm.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	for _, u := range []struct{ host, target string }{{site.Domain(), "/robots.txt"}, {"203.0.113.250", "/"}} {
		if _, _, err := netsim.Get(context.Background(), client, u.host, u.target, nil); err == nil || !strings.Contains(err.Error(), "connection refused") {
			t.Errorf("Get %s%s after Close = %v, want refused", u.host, u.target, err)
		}
	}
	if _, err := farm.StartSite(WildcardDisallowSite("late.test", "203.0.113.84")); err == nil {
		t.Fatal("StartSite after Close must fail")
	}
	if len(site.Log()) != 1 {
		t.Fatalf("log after close = %d records, want 1", len(site.Log()))
	}
}

// TestFarmSharedSiteIP hosts three domains on one advertised IP — the
// scenario-engine layout where every site shares the farm address. Each
// answers its own Host; dial-by-IP lands on the first registered, and
// when that one is removed the survivor that takes over is the smallest
// lower-cased domain — on every farm, not whichever the members map
// yields first.
func TestFarmSharedSiteIP(t *testing.T) {
	for round := 0; round < 20; round++ {
		nw := netsim.New()
		farm := newFarm(t, nw, "203.0.113.250")
		var sites []*Site
		for _, name := range []string{"owner", "Heir-B", "heir-a"} {
			s, err := farm.StartSite(Config{Domain: name + ".test", IP: "203.0.113.250",
				Pages: map[string]Page{"/": {Body: name}}})
			if err != nil {
				t.Fatal(err)
			}
			sites = append(sites, s)
		}
		client := nw.HTTPClient("198.51.100.98")
		for _, s := range sites {
			if _, body := get(t, client, s.URL()+"/", "x"); body+".test" != s.Domain() {
				t.Fatalf("%s answered %q", s.Domain(), body)
			}
		}
		if _, body := get(t, client, "http://203.0.113.250/", "x"); body != "owner" {
			t.Fatalf("round %d: dial-by-IP answered by %q, want the first registered", round, body)
		}
		sites[0].Close()
		if resp, body := get(t, client, sites[1].URL()+"/", "x"); resp.StatusCode != 200 || body != "Heir-B" {
			t.Fatalf("Heir-B after removing owner = %d %q", resp.StatusCode, body)
		}
		if _, body := get(t, client, "http://203.0.113.250/", "x"); body != "heir-a" {
			t.Fatalf("round %d: dial-by-IP after removal answered by %q, want heir-a", round, body)
		}
	}
}

// wireAddr is where serveWire's stock server listens: an address no
// farm in these tests is bound at.
const wireAddr = "192.0.2.200:8080"

// serveWire serves h over wire conns with a stock http.Server on a
// netsim listener at wireAddr until the test ends.
func serveWire(t *testing.T, nw *netsim.Network, h http.Handler) {
	t.Helper()
	ln, err := nw.Listen("192.0.2.200", 8080)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
}

// stockClient is a stock http.Client that dials serveWire's server
// through nw from sourceIP, whatever the URL's host — the Host header
// still picks the site — and counts its dials in dialed.
func stockClient(nw *netsim.Network, sourceIP string, dialed *atomic.Int64) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			dialed.Add(1)
			return nw.Dial(ctx, sourceIP, wireAddr)
		},
		DisableCompression: true,
	}}
}

// TestFastServerDrainsPostAcrossRing sends a POST body several times the
// 32KiB netsim ring at a farm site from a stock client, through a stock
// server. Content sites have no POST handler and never read the body,
// but the server must still drain it (otherwise the client blocks
// writing into a full ring while the server blocks writing the
// response) and then keep serving the connection.
func TestFastServerDrainsPostAcrossRing(t *testing.T) {
	nw := netsim.New()
	farm := newFarm(t, nw, "203.0.113.251")
	if _, err := farm.StartSite(WildcardDisallowSite("upload.test", "203.0.113.81")); err != nil {
		t.Fatal(err)
	}
	serveWire(t, nw, farm)

	var dialed atomic.Int64
	client := stockClient(nw, "198.51.100.96", &dialed)
	defer client.CloseIdleConnections()
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
	if got := dialed.Load(); got != 1 {
		t.Fatalf("farm saw %d connections, want 1", got)
	}
}
