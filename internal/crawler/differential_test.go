package crawler

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/webserver"
)

// stdlibGet is the reference netsim.Get is checked against: the GET of
// the URL "http://"+host+target, built by hand and sent through
// client.Do, its body read through a 1 MiB limit — what netsim.Get did
// before it drove the transport directly.
func stdlibGet(ctx context.Context, client *http.Client, host, target string, hdr http.Header) (int, string, error) {
	u, err := url.Parse("http://" + host + target)
	if err != nil {
		return 0, "", err
	}
	req := (&http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     hdr,
		Host:       u.Host,
	}).WithContext(ctx)
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, string(body), nil
}

// recorder wraps a crawler's fetch and keeps one line per response the
// crawler was handed: user agent, host, target, status, body, and
// whether the fetch failed.
type recorder struct {
	get func(ctx context.Context, client *http.Client, host, target string, hdr http.Header) (int, string, error)
	got []string
}

func (r *recorder) fetch(ctx context.Context, client *http.Client, host, target string, hdr http.Header) (int, string, error) {
	status, body, err := r.get(ctx, client, host, target, hdr)
	r.got = append(r.got, fmt.Sprintf("%s %s %s: %d %q failed=%v", hdr.Get("User-Agent"), host, target, status, body, err != nil))
	return status, body, err
}

// fleetRun is everything observable about one fleet run: what each
// crawler concluded, what it was served, and what the sites logged (one
// site's log after the other's).
type fleetRun struct {
	Visits    []*Visit
	Responses []string
	Log       []webserver.Record
}

// wireAddr is where serveWire's stock server listens, beside the farm's
// binding at port 80.
const wireAddr = "203.0.117.250:8080"

// serveWire serves the farm over wire conns with a stock http.Server on
// a netsim listener at wireAddr until the test ends. Every stock
// client's conn dials it, whatever the URL's host: the Host header
// picks the site.
func serveWire(t *testing.T, nw *netsim.Network, farm *webserver.Farm) {
	t.Helper()
	ln, err := nw.Listen("203.0.117.250", 8080)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: farm}
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

// runFleet drives one crawler fleet — every behaviour, two crawl waves
// and a user-triggered fetch each — at a disallow-all site and a site
// that blocks one agent, hosted on one farm. With stdlib set the
// crawlers fetch through stdlibGet on a stock http.Transport, over the
// wire to serveWire's server, instead of netsim.Get on their own netsim
// client.
func runFleet(t *testing.T, stdlib, keepAlive bool) fleetRun {
	t.Helper()
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.117.250")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { farm.Close() })
	open := webserver.Config{Domain: "open.test", IP: "203.0.117.1", Pages: webserver.ContentPages("open.test")}
	open.Blocker = webserver.BlockerFunc(func(r *http.Request) *webserver.BlockDecision {
		if strings.Contains(r.UserAgent(), "Bytespider") {
			return &webserver.BlockDecision{Status: 403, Body: "<html>blocked</html>"}
		}
		return nil
	})
	var sites []*webserver.Site
	for _, cfg := range []webserver.Config{webserver.WildcardDisallowSite("closed.test", "203.0.117.2"), open} {
		site, err := farm.StartSite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, site)
	}
	if stdlib {
		serveWire(t, nw, farm)
	}

	var run fleetRun
	ctx := context.Background()
	for _, p := range []Profile{
		{Token: "GPTBot", SourceIP: "24.0.1.10", Behavior: Compliant},
		{Token: "Bytespider", SourceIP: "30.0.1.10", Behavior: FetchIgnore},
		{Token: "WebFetcher", SourceIP: "100.64.0.10", Behavior: NoFetch},
		{Token: "BuggyBot", SourceIP: "100.65.0.10", Behavior: BuggyFetch},
		{Token: "ChatGPT-User", SourceIP: "24.0.2.10", Behavior: IntermittentFetch},
	} {
		cr, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{get: cr.get}
		if stdlib {
			rec.get = stdlibGet
			cr.client = &http.Client{Transport: &http.Transport{
				DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
					return nw.Dial(ctx, p.SourceIP, wireAddr)
				},
				DisableKeepAlives: !keepAlive,
			}}
		}
		cr.get = rec.fetch
		// Two waves: keep-alive reuses each site's connection across
		// them, per-request dial opens one per request.
		for wave := 0; wave < 2; wave++ {
			for _, site := range sites {
				v, err := cr.Crawl(ctx, site.URL())
				if err != nil {
					t.Fatal(err)
				}
				run.Visits = append(run.Visits, v)
			}
		}
		_, v, err := cr.FetchOne(ctx, sites[1].URL()+"/gallery.html")
		if err != nil {
			t.Fatal(err)
		}
		run.Visits = append(run.Visits, v)
		run.Responses = append(run.Responses, rec.got...)
		cr.client.CloseIdleConnections()
	}
	for _, site := range sites {
		if site.LogLen() == 0 {
			t.Fatalf("%s: no traffic captured", site.Domain())
		}
		run.Log = append(run.Log, site.Log()...)
	}
	return run
}

// sameSequence fails the test at the first position where the fleet
// observed something else under net/http than under netsim's client.
func sameSequence[T comparable](t *testing.T, what string, fast, std []T) {
	t.Helper()
	if len(std) != len(fast) {
		t.Fatalf("%d %ss under net/http, %d under the fast client", len(std), what, len(fast))
	}
	for i := range fast {
		if std[i] != fast[i] {
			t.Fatalf("%s %d:\nfast:     %.300v\nnet/http: %.300v", what, i, fast[i], std[i])
		}
	}
}

// TestFleetIdenticalUnderStdlibClient is the end-to-end half of the
// in-process HTTP oracle, and the proof that connections are invisible
// to the measurement: the same crawler fleet runs through netsim.Get,
// which calls the farm in-process, and through stdlibGet on a stock
// http.Transport over the wire to a stock server of the same farm, with
// keep-alive and dialing per request. Every site's log must be equal
// record for record (source IPs, user agents, paths in order, statuses,
// byte counts), every response byte-equal, and every Visit the same.
func TestFleetIdenticalUnderStdlibClient(t *testing.T) {
	fast := runFleet(t, false, true)
	for _, keepAlive := range []bool{true, false} {
		t.Run(fmt.Sprintf("keepAlive=%v", keepAlive), func(t *testing.T) {
			std := runFleet(t, true, keepAlive)
			sameSequence(t, "log record", fast.Log, std.Log)
			sameSequence(t, "response", fast.Responses, std.Responses)
			if !reflect.DeepEqual(std.Visits, fast.Visits) {
				t.Errorf("visits diverged:\nfast:     %+v\nnet/http: %+v", fast.Visits, std.Visits)
			}
		})
	}
}
