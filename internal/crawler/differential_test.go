package crawler

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/webserver"
)

// recorder is a RoundTripper that keeps one line per response the
// wrapped transport hands the crawler: URL, status, type, body bytes.
type recorder struct {
	rt  http.RoundTripper
	got []string
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.got = append(r.got, fmt.Sprintf("%s %s: %d %s %q",
		req.Header.Get("User-Agent"), req.URL, resp.StatusCode, resp.Header.Get("Content-Type"), body))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// fleetRun is everything observable about one fleet run: what each
// crawler concluded, what it was served, and what the sites logged (one
// site's log after the other's).
type fleetRun struct {
	Visits    []*Visit
	Responses []string
	Log       []webserver.Record
}

// runFleet drives one crawler fleet — every behaviour, two crawl waves
// and a user-triggered fetch each — at a disallow-all site and a site
// that blocks one agent. With stdlib set the crawlers ride a stock
// http.Transport instead of their own fast one.
func runFleet(t *testing.T, stdlib, keepAlive bool) fleetRun {
	t.Helper()
	nw := netsim.New()
	open := webserver.Config{Domain: "open.test", IP: "203.0.117.1", Pages: webserver.ContentPages("open.test")}
	open.Blocker = webserver.BlockerFunc(func(r *http.Request) *webserver.BlockDecision {
		if strings.Contains(r.UserAgent(), "Bytespider") {
			return &webserver.BlockDecision{Status: 403, Body: "<html>blocked</html>"}
		}
		return nil
	})
	sites := []*webserver.Site{
		startSite(t, nw, webserver.WildcardDisallowSite("closed.test", "203.0.117.2")),
		startSite(t, nw, open),
	}

	var run fleetRun
	ctx := context.Background()
	for _, p := range []Profile{
		{Token: "GPTBot", SourceIP: "24.0.1.10", Behavior: Compliant},
		{Token: "Bytespider", SourceIP: "30.0.1.10", Behavior: FetchIgnore},
		{Token: "WebFetcher", SourceIP: "100.64.0.10", Behavior: NoFetch},
		{Token: "BuggyBot", SourceIP: "100.65.0.10", Behavior: BuggyFetch},
		{Token: "ChatGPT-User", SourceIP: "24.0.2.10", Behavior: IntermittentFetch, CacheRobots: true},
	} {
		cr, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{rt: cr.client.Transport}
		if stdlib {
			rec.rt = &http.Transport{DialContext: nw.Dialer(p.SourceIP), DisableKeepAlives: !keepAlive}
		}
		cr.client = &http.Client{Transport: rec}
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
	}
	for _, site := range sites {
		if site.LogLen() == 0 {
			t.Fatalf("%s: no traffic captured", site.Domain())
		}
		run.Log = append(run.Log, untimed(site.Log())...)
	}
	return run
}

// sameSequence fails the test at the first position where the fleet
// observed something else under net/http than under the fast client.
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
// hand-rolled-HTTP oracle, and the proof that connection reuse is
// invisible to the measurement: the same crawler fleet runs on the fast
// transport, on a stock http.Transport with keep-alive, and on one that
// dials per request. Every site's log must be equal record for record
// (source IPs, user agents, paths in order, statuses, byte counts),
// every response byte-equal, and every Visit the same.
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
