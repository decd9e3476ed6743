package main

// Benchmarks that exercise APIs introduced together with this tool (the
// legacy-transport compatibility knob and the shared robots parse
// cache). They live apart from main.go so the common subset there can be
// compiled against older revisions when reconstructing a baseline.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/corpus"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policyd"
	"repro/internal/robots"
	"repro/internal/webserver"
)

// snapBatchSize is the query count per batched serving call in the wire
// comparison benchmarks.
const snapBatchSize = 256

// benchNetsimHTTP measures one keep-alive GET round trip through a farm
// site, on the fast path or with the stdlib-net/http knob on.
func benchNetsimHTTP(b *testing.B, legacy bool) {
	netsim.SetLegacyNetHTTP(legacy)
	defer netsim.SetLegacyNetHTTP(false)
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.241")
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.WildcardDisallowSite("snap-fast.test", "203.0.113.217"))
	if err != nil {
		b.Fatal(err)
	}
	client := nw.HTTPClient("198.51.100.217")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(site.URL() + "/robots.txt")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// benchSiteStartup measures one site start/stop cycle under either
// hosting mode.
func benchSiteStartup(b *testing.B, legacy bool) {
	webserver.SetLegacyPerSiteHosting(legacy)
	defer webserver.SetLegacyPerSiteHosting(false)
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.240")
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site, err := farm.StartSite(webserver.Config{
			Domain: "snap-startup.test", IP: "203.0.113.214",
			Pages: webserver.ContentPages("snap-startup.test"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := site.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// snapPolicyService compiles a small corpus snapshot and returns a
// warmed service plus a query cycle.
func snapPolicyService(b *testing.B) (*policyd.Service, []policyd.Query) {
	b.Helper()
	c, err := corpus.New(context.Background(), corpus.Config{Seed: snapSeed, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := policyd.FromCorpus(context.Background(), c, len(corpus.Snapshots)-1, 8)
	if err != nil {
		b.Fatal(err)
	}
	svc := policyd.NewService(snap)
	hosts := snap.Hosts()
	mix := []string{"GPTBot", "ClaudeBot", "CCBot", "Bytespider", "Googlebot"}
	qs := make([]policyd.Query, 2048)
	for i := range qs {
		qs[i] = policyd.Query{Host: hosts[(i*31)%len(hosts)], Agent: mix[i%len(mix)], Path: "/about.html"}
	}
	for _, q := range qs {
		svc.Decide(q)
	}
	return svc, qs
}

func init() {
	register("policyd_decide", func(b *testing.B) {
		svc, qs := snapPolicyService(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.Decide(qs[i%len(qs)])
		}
	})

	register("policyd_http", func(b *testing.B) {
		svc, qs := snapPolicyService(b)
		nw := netsim.New()
		ln, err := nw.Listen("203.0.113.213", 80)
		if err != nil {
			b.Fatal(err)
		}
		nw.Register("snap-policyd.test", "203.0.113.213")
		srv := &http.Server{Handler: policyd.NewHandler(svc)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln)
		}()
		defer func() {
			srv.Close()
			<-done
		}()
		client := nw.HTTPClient("198.51.100.213")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			resp, err := client.Get("http://snap-policyd.test/v1/decide?agent=" + q.Agent + "&path=/about.html&host=" + q.Host)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

func init() {
	register("netsim_http_legacy_dial", func(b *testing.B) {
		netsim.SetLegacyPerRequestDial(true)
		defer netsim.SetLegacyPerRequestDial(false)
		nw := netsim.New()
		site, err := webserver.Start(nw, webserver.WildcardDisallowSite("snap-legacy.test", "203.0.113.212"))
		if err != nil {
			b.Fatal(err)
		}
		defer site.Close()
		client := nw.HTTPClient("198.51.100.211")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(site.URL() + "/robots.txt")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})

	// farm_site_startup vs legacy_site_startup isolates the hosting
	// redesign's unit saving: registering one site with the shared-
	// listener farm against standing up a dedicated per-site server.
	register("farm_site_startup", func(b *testing.B) {
		benchSiteStartup(b, false)
	})
	register("legacy_site_startup", func(b *testing.B) {
		benchSiteStartup(b, true)
	})

	// netsim_http_fast / netsim_http_legacy isolate the PR 6 framing
	// rewrite: the same request loop as netsim_http on the netsim-native
	// fast path (the default) and with the knob forcing stdlib net/http
	// on both client and servers.
	register("netsim_http_fast", func(b *testing.B) {
		benchNetsimHTTP(b, false)
	})
	register("netsim_http_legacy", func(b *testing.B) {
		benchNetsimHTTP(b, true)
	})

	// policyd_http_batch vs policyd_frame_batch is the serving-layer wire
	// comparison: identical 256-query batches from one warmed service,
	// once JSON-over-HTTP, once as binary frames, both over netsim.
	register("policyd_http_batch", func(b *testing.B) {
		svc, qs := snapPolicyService(b)
		nw := netsim.New()
		ln, err := nw.Listen("203.0.113.215", 80)
		if err != nil {
			b.Fatal(err)
		}
		nw.Register("snap-batch.test", "203.0.113.215")
		srv := &http.Server{Handler: policyd.NewHandler(svc)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln)
		}()
		defer func() {
			srv.Close()
			<-done
		}()
		client := nw.HTTPClient("198.51.100.215")
		batch := qs[:snapBatchSize]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(policyd.BatchRequest{Queries: batch})
			if err != nil {
				b.Fatal(err)
			}
			resp, err := client.Post("http://snap-batch.test/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var br policyd.BatchResponse
			err = json.NewDecoder(resp.Body).Decode(&br)
			resp.Body.Close()
			if err != nil || len(br.Decisions) != len(batch) {
				b.Fatalf("batch: %d decisions, err %v", len(br.Decisions), err)
			}
		}
		b.ReportMetric(float64(snapBatchSize), "queries_per_op")
	})

	register("policyd_frame_batch", func(b *testing.B) {
		svc, qs := snapPolicyService(b)
		nw := netsim.New()
		ln, err := nw.Listen("203.0.113.216", 80)
		if err != nil {
			b.Fatal(err)
		}
		go policyd.ServeFrames(ln, svc)
		defer ln.Close()
		conn, err := nw.Dial(context.Background(), "198.51.100.216", "203.0.113.216:80")
		if err != nil {
			b.Fatal(err)
		}
		fc, err := policyd.NewFrameClientV2(conn)
		if err != nil {
			b.Fatal(err)
		}
		defer fc.Close()
		batch := qs[:snapBatchSize]
		out := make([]policyd.Decision, 0, snapBatchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, _, err = fc.Decide(batch, out[:0])
			if err != nil || len(out) != len(batch) {
				b.Fatalf("frame batch: %d decisions, err %v", len(out), err)
			}
		}
		b.ReportMetric(float64(snapBatchSize), "queries_per_op")
	})

	// The instrumentation-tax pair: the same request loop as netsim_http
	// with obs recording live (the default everywhere else) and with the
	// no-op knob flipped off. Comparing either against BENCH_pr6.json's
	// uninstrumented netsim_http bounds the metrics overhead, and the
	// pair's mutual delta isolates it exactly.
	register("netsim_http_instrumented", func(b *testing.B) {
		obs.SetEnabled(true)
		benchNetsimHTTP(b, false)
	})
	register("netsim_http_noobs", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		benchNetsimHTTP(b, false)
	})

	// policyd_decide with recording disabled, against the default
	// (instrumented) policyd_decide above: the decision-counter tax.
	register("policyd_decide_noobs", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		svc, qs := snapPolicyService(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.Decide(qs[i%len(qs)])
		}
	})

	register("robots_parse_cached", func(b *testing.B) {
		body := snapRobotsBody()
		cache := robots.NewCache(0)
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rb := cache.Parse(body); len(rb.Groups) == 0 {
				b.Fatal("no groups")
			}
		}
	})
}

// compileCorpus builds the corpus the compile benchmark pair shares.
func compileCorpus(b *testing.B) *corpus.Corpus {
	b.Helper()
	c, err := corpus.New(context.Background(), corpus.Config{Seed: snapSeed, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// The snapshot-advance cost pair: a cold month-to-month recompile
// against an incremental one seeded with the previous snapshot, where
// hosts whose normalized robots.txt (and ai.txt/blocker state) did not
// change reuse their compiled shard entries.
func init() {
	const at = corpus.GPTBotAnnouncedIndex + 1

	register("policyd_compile_full", func(b *testing.B) {
		c := compileCorpus(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, err := policyd.FromCorpus(ctx, c, at, 8)
			if err != nil {
				b.Fatal(err)
			}
			if snap.Len() == 0 {
				b.Fatal("empty snapshot")
			}
		}
	})

	register("policyd_compile_incremental", func(b *testing.B) {
		c := compileCorpus(b)
		ctx := context.Background()
		prev, err := policyd.FromCorpus(ctx, c, at-1, 8)
		if err != nil {
			b.Fatal(err)
		}
		var reused int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, err := policyd.FromCorpusIncremental(ctx, c, at, 8, prev)
			if err != nil {
				b.Fatal(err)
			}
			reused = snap.ReusedHosts()
			if reused == 0 {
				b.Fatal("incremental compile reused nothing")
			}
		}
		b.ReportMetric(float64(reused), "hosts-reused")
	})
}
