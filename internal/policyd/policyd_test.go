package policyd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/netsim"
)

// buildTestSnapshot compiles a small hand-written host set covering all
// four signal classes.
func buildTestSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	b := &Builder{}
	b.Add("plain.test", HostConfig{
		RobotsTxt: "User-agent: *\nDisallow: /admin/\n",
	})
	b.Add("ai-restricted.test", HostConfig{
		RobotsTxt: "User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nDisallow: /admin/\n",
	})
	b.Add("aitxt.test", HostConfig{
		RobotsTxt: "User-agent: *\nDisallow: /admin/\n",
		AITxt:     "User-Agent: *\nImage: N\nDisallow: /gallery/\n",
	})
	b.Add("meta.test", HostConfig{
		RobotsTxt: "User-agent: *\nDisallow:\n",
		MetaHTML:  `<html><head><meta name="robots" content="noimageai"></head></html>`,
	})
	b.Add("blocked.test", HostConfig{
		RobotsTxt: "User-agent: *\nDisallow: /admin/\n",
		Blocklist: []string{"GPTBot", "ClaudeBot"},
	})
	b.Add("norobots.test", HostConfig{})
	snap, err := b.Build(context.Background(), "test", 2)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotString: a snapshot prints as its version and its host
// count, and a host staged twice counts once.
func TestSnapshotString(t *testing.T) {
	if got, want := fmt.Sprint(buildTestSnapshot(t)), "policyd.Snapshot{test: 6 hosts}"; got != want {
		t.Errorf("snapshot prints %q, want %q", got, want)
	}
	b := &Builder{}
	b.Add("twice.test", HostConfig{})
	b.Add("TWICE.test", HostConfig{RobotsTxt: "User-agent: *\nDisallow: /\n"})
	snap, err := b.Build(context.Background(), "v2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.String(), "policyd.Snapshot{v2: 1 hosts}"; got != want {
		t.Errorf("snapshot prints %q, want %q", got, want)
	}
}

func TestDecideSignals(t *testing.T) {
	snap := buildTestSnapshot(t)
	cases := []struct {
		q    Query
		want Decision
	}{
		// Unknown host: default allow.
		{Query{"unknown.test", "GPTBot", "/"}, Decision{allow, signalNone}},
		// Wildcard group governs everyone.
		{Query{"plain.test", "GPTBot", "/admin/x"}, Decision{Deny, signalRobotsWildcard}},
		{Query{"plain.test", "GPTBot", "/about"}, Decision{allow, signalRobotsWildcard}},
		// Explicit group beats wildcard for the named agent.
		{Query{"ai-restricted.test", "GPTBot", "/about"}, Decision{Deny, signalRobotsAgent}},
		{Query{"ai-restricted.test", "CCBot", "/about"}, Decision{allow, signalRobotsWildcard}},
		// /robots.txt is always fetchable (RFC 9309).
		{Query{"ai-restricted.test", "GPTBot", "/robots.txt"}, Decision{allow, signalRobotsAgent}},
		// ai.txt: path pattern beats media default; media default denies.
		{Query{"aitxt.test", "GPTBot", "/gallery/piece.html"}, Decision{Deny, signalAITxt}},
		{Query{"aitxt.test", "GPTBot", "/piece.PNG"}, Decision{Deny, signalAITxt}},
		{Query{"aitxt.test", "GPTBot", "/about.html"}, Decision{allow, signalRobotsWildcard}},
		// noimageai denies images only.
		{Query{"meta.test", "GPTBot", "/art.jpg"}, Decision{Deny, signalMeta}},
		// The wildcard group (with its empty, match-nothing Disallow)
		// still governs the agent, so the allow reports that signal.
		{Query{"meta.test", "GPTBot", "/about.html"}, Decision{allow, signalRobotsWildcard}},
		// Active blocking dominates everything, including robots.txt.
		{Query{"blocked.test", "GPTBot", "/about"}, Decision{Block, signalBlocker}},
		{Query{"blocked.test", "Googlebot", "/admin/x"}, Decision{Deny, signalRobotsWildcard}},
		// Host case folds; agents outside the roster still resolve.
		{Query{"BLOCKED.test", "claudebot-news", "/"}, Decision{Block, signalBlocker}},
		{Query{"norobots.test", "GPTBot", "/anything"}, Decision{allow, signalNone}},
	}
	svc := NewService(snap)
	ctx := context.Background()
	for _, c := range cases {
		ds, version, _ := svc.Answer(ctx, []Query{c.q}, nil)
		if version != snap.Version {
			t.Errorf("Answer(%+v) names version %q, want %q", c.q, version, snap.Version)
		}
		if got := ds[0]; got != c.want {
			t.Errorf("Decide(%+v) = %v/%v, want %v/%v",
				c.q, got.Action, got.Signal, c.want.Action, c.want.Signal)
		}
	}
	if st := svc.Stats(); st.Queries != uint64(len(cases)) || st.Hosts != 6 {
		t.Errorf("stats = %+v, want %d queries, 6 hosts", st, len(cases))
	}
}

func TestDecideBatchMatchesSingle(t *testing.T) {
	snap := buildTestSnapshot(t)
	svc := NewService(snap)
	var qs []Query
	for _, h := range snap.Hosts() {
		for _, a := range []string{"GPTBot", "CCBot", "Googlebot", "UnknownBot"} {
			for _, p := range []string{"/", "/admin/x", "/gallery/a.png", "/robots.txt"} {
				qs = append(qs, Query{h, a, p})
			}
		}
	}
	batch, _, _ := svc.Answer(context.Background(), qs, make([]Decision, 0, len(qs)))
	for i, q := range qs {
		if single := snap.Decide(q); batch[i] != single {
			t.Fatalf("batch[%d] (%+v) = %v, single = %v", i, q, batch[i], single)
		}
	}
}

// TestDecideZeroAlloc locks in the hot-path contract: roster agents
// against snapshot hosts decide without allocating, and so do agents
// outside the roster, even ones never queried before.
func TestDecideZeroAlloc(t *testing.T) {
	snap := buildTestSnapshot(t)
	svc := NewService(snap)
	qs := []Query{
		{"plain.test", "GPTBot", "/admin/x"},
		{"ai-restricted.test", "CCBot", "/about"},
		{"aitxt.test", "ClaudeBot", "/gallery/piece.html"},
		{"aitxt.test", "GPTBot", "/piece.PNG"},
		{"aitxt.test", "CCBot", "/about.html"},
		{"meta.test", "GPTBot", "/art.jpg"},
		{"blocked.test", "Bytespider", "/"},
		{"norobots.test", "Googlebot", "/x"},
	}
	ctx := context.Background()
	out := make([]Decision, 0, len(qs))
	// Warm every (host, agent) pair once (the compile already did).
	out, _, _ = svc.Answer(ctx, qs, out[:0])
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		j := i % len(qs)
		out, _, _ = svc.Answer(ctx, qs[j:j+1], out[:0])
		i++
	}); allocs != 0 {
		t.Fatalf("Answer allocated %v/op for one query on the cached hot path, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		out, _, _ = svc.Answer(ctx, qs, out[:0])
	}); allocs != 0 {
		t.Fatalf("Answer allocated %v/op for a batch on the cached hot path, want 0", allocs)
	}

	// One distinct off-roster agent per call, AllocsPerRun's warm-up call
	// included, so no call can reuse what an earlier one left behind.
	// Half of them extend a roster name ("GPTBot-v7" is governed by a
	// GPTBot group), half match no group.
	const runs = 1000
	fresh := make([]string, runs+1)
	for j := range fresh {
		if j%2 == 0 {
			fresh[j] = fmt.Sprintf("GPTBot-v%d", j)
		} else {
			fresh[j] = fmt.Sprintf("Mozilla/5.0 (compatible; OffRoster%d/1.0)", j)
		}
	}
	hosts := snap.Hosts()
	one := make([]Query, 1)
	j := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		one[0] = Query{hosts[j%len(hosts)], fresh[j], "/admin/x"}
		out, _, _ = svc.Answer(ctx, one, out[:0])
		j++
	}); allocs != 0 {
		t.Fatalf("Answer allocated %v/op for never-seen off-roster agents, want 0", allocs)
	}
}

// TestOffRosterAgentsRetainNothing sends 200,000 distinct off-roster
// agents to one host: the parsed robots.txt, shared through the
// process-wide parse cache and so outliving any snapshot, must not grow
// with the agents it has answered.
func TestOffRosterAgentsRetainNothing(t *testing.T) {
	snap := buildTestSnapshot(t)
	decide := func(n int) {
		for i := 0; i < n; i++ {
			snap.Decide(Query{"ai-restricted.test", fmt.Sprintf("Crawler%d/1.0", i), "/about"})
		}
	}
	decide(1) // any first-use state is built before the baseline
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	decide(200_000)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(snap)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("200,000 off-roster agents retained %d bytes, want < 1 MiB", grew)
	}
}

// TestSwapRace hammers queries concurrently with snapshot swaps; under
// -race this proves the hot path and hot reload share no mutable state.
func TestSwapRace(t *testing.T) {
	snapA := buildTestSnapshot(t)
	bldr := &Builder{}
	bldr.Add("plain.test", HostConfig{RobotsTxt: "User-agent: *\nDisallow: /\n"})
	bldr.Add("blocked.test", HostConfig{Blocklist: []string{"GPTBot"}})
	snapB, err := bldr.Build(context.Background(), "test-b", 2)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewService(snapA)
	qs := []Query{
		{"plain.test", "GPTBot", "/admin/x"},
		{"blocked.test", "GPTBot", "/"},
		{"ai-restricted.test", "CCBot", "/about"},
		{"unknown.test", "GPTBot", "/"},
	}
	const (
		readers = 8
		decides = 20_000
		swaps   = 2_000
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			out := make([]Decision, 0, len(qs))
			for i := 0; i < decides; i++ {
				k := (i + r) % len(qs)
				out, _, _ = svc.Answer(ctx, qs[k:k+1], out[:0])
				if d := out[0]; qs[k].Host == "unknown.test" && d != (Decision{allow, signalNone}) {
					t.Errorf("unknown host decided %v", d)
					return
				}
				if i%64 == 0 {
					out, _, _ = svc.Answer(ctx, qs, out[:0])
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				svc.Swap(snapB)
			} else {
				svc.Swap(snapA)
			}
		}
	}()
	wg.Wait()
}

func TestFromCorpusEnrichment(t *testing.T) {
	ctx := context.Background()
	c, err := corpus.New(ctx, corpus.Config{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	early, err := FromCorpus(ctx, c, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	late, err := FromCorpus(ctx, c, len(corpus.Snapshots)-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []int{-1, len(corpus.Snapshots)} {
		if _, err := FromCorpus(ctx, c, snap, 4); err == nil {
			t.Errorf("snapshot index %d: no error", snap)
		}
	}
	if early.Len() != len(c.Sites()) || late.Len() != early.Len() {
		t.Fatalf("host counts: early %d late %d corpus %d", early.Len(), late.Len(), len(c.Sites()))
	}
	if early.Version != corpus.Snapshots[0].ID || late.Version != corpus.Snapshots[len(corpus.Snapshots)-1].ID {
		t.Fatalf("versions %q %q", early.Version, late.Version)
	}
	// Enrichment traits are snapshot-independent; policies evolve.
	var aiHosts, blockHosts, metaHosts, deniesLate, deniesEarly int
	for _, h := range early.Hosts() {
		se, _ := snapshotSource(early, h)
		sl, ok := snapshotSource(late, h)
		if !ok {
			t.Fatalf("host %s missing from late snapshot", h)
		}
		if (se.AITxt == "") != (sl.AITxt == "") || (se.Blocklist == nil) != (sl.Blocklist == nil) ||
			se.MetaHTML != sl.MetaHTML {
			t.Fatalf("host %s enrichment traits changed across snapshots", h)
		}
		if se.AITxt != "" {
			aiHosts++
		}
		if se.Blocklist != nil {
			blockHosts++
			if len(sl.Blocklist) < len(se.Blocklist) {
				t.Fatalf("host %s blocklist shrank over time", h)
			}
		}
		if se.MetaHTML != "" {
			metaHosts++
		}
		q := Query{h, "GPTBot", "/about.html"}
		if !early.Decide(q).Allowed() {
			deniesEarly++
		}
		if !late.Decide(q).Allowed() {
			deniesLate++
		}
	}
	if aiHosts == 0 || blockHosts == 0 {
		t.Fatalf("enrichment missing: %d ai.txt hosts, %d blocking hosts", aiHosts, blockHosts)
	}
	// Adoption grows over the window, so the late snapshot denies more.
	if deniesLate <= deniesEarly {
		t.Fatalf("GPTBot denials: early %d, late %d — expected growth", deniesEarly, deniesLate)
	}
	_ = metaHosts // rare at small scale; presence asserted by rates test below
}

// TestHTTPAPI drives the JSON API both ways: bound with Network.Handle,
// in-process through the netsim client, and over the wire to a stock
// http.Server on a netsim listener at port 8080 of the same IP, through
// a stock http.Transport. Every case must answer with its status, X-Policyd-Version
// and body, and the same status, body, Content-Type, X-Policyd-Version,
// Retry-After and X-Retry-After-Ms both ways. A second address answers
// through a rate-limited Answerer, for the 429.
func TestHTTPAPI(t *testing.T) {
	snap := buildTestSnapshot(t)
	svc := NewService(snap)
	if svc.Current() != snap {
		t.Fatal("Current is not the snapshot the service was built on")
	}
	limited := &RateLimitError{RetryAfter: 1500 * time.Millisecond}
	if got, want := limited.Error(), "policyd: rate limited, retry after 1.5s"; got != want {
		t.Fatalf("RateLimitError.Error() = %q, want %q", got, want)
	}

	nw := netsim.New()
	for ip, h := range map[string]http.Handler{
		"203.0.113.60": NewHandler(svc),
		"203.0.113.61": NewHandlerFor(limitedAnswerer{limited}, mWireJSON, mJSONStages, nil),
	} {
		release, err := nw.Handle(ip, 80, h)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		ln, err := nw.Listen(ip, 8080)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: h}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln)
		}()
		defer func() { srv.Close(); <-served }()
	}
	fast := nw.HTTPClient("198.51.100.60")
	stock := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, addr string) (net.Conn, error) {
			host, _, _ := net.SplitHostPort(addr)
			return nw.Dial(ctx, "198.51.100.60", net.JoinHostPort(host, "8080"))
		},
		DisableCompression: true,
	}}
	defer stock.CloseIdleConnections()

	type answer struct {
		status  int
		version string
		body    string
	}
	type reply struct {
		answer
		contentType, retryAfter, retryAfterMs string
	}
	do := func(client *http.Client, host, method, target string, body []byte) reply {
		t.Helper()
		req, err := http.NewRequest(method, "http://"+host+target, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: body: %v", method, target, err)
		}
		h := resp.Header
		return reply{answer{resp.StatusCode, h.Get("X-Policyd-Version"), string(b)},
			h.Get("Content-Type"), h.Get("Retry-After"), h.Get("X-Retry-After-Ms")}
	}
	batchOf := func(qs ...Query) []byte {
		b, err := json.Marshal(BatchRequest{Queries: qs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	tooMany := make([]Query, MaxBatch+1)
	for i := range tooMany {
		tooMany[i] = Query{"plain.test", "GPTBot", "/"}
	}
	// A valid batch padded past the byte bound: the size guard, not the
	// parser, must reject it.
	oversize := []byte(`{"queries":[]}`)
	oversize = append(oversize, bytes.Repeat([]byte(" "), maxBatchBytes+1-len(oversize))...)

	cases := []struct {
		name, method, target string
		body                 []byte
		want                 answer // version "" means the snapshot's when status is 200
		limited              bool   // sent to the rate-limited address
	}{
		{"decide", "GET", "/v1/decide?host=blocked.test&agent=GPTBot&path=/", nil,
			answer{200, "", `{"action":"block","signal":"blocker"}` + "\n"}, false},
		{"decide escaped", "GET", "/v1/decide?" + url.Values{"host": {"plain.test"}, "agent": {"Mozilla/5.0 GPTBot"}, "path": {"/admin/x"}}.Encode(), nil,
			answer{200, "", `{"action":"deny","signal":"robots-wildcard"}` + "\n"}, false},
		{"decide wrong method", "POST", "/v1/decide?host=plain.test&agent=GPTBot", nil,
			answer{405, "", "GET only\n"}, false},
		{"decide missing host", "GET", "/v1/decide?agent=GPTBot", nil,
			answer{400, "", "host and agent are required\n"}, false},
		{"decide missing agent", "GET", "/v1/decide?host=plain.test&agent=", nil,
			answer{400, "", "host and agent are required\n"}, false},
		{"batch", "POST", "/v1/batch", batchOf(Query{"plain.test", "GPTBot", "/admin/x"}, Query{"unknown.test", "CCBot", "/"}),
			answer{200, "", `{"decisions":[{"action":"deny","signal":"robots-wildcard"},{"action":"allow","signal":"none"}]}` + "\n"}, false},
		{"batch escaped", "POST", "/v1/batch", []byte(`{"queries":[{"host":"plain.test","agent":"GPT\u0042ot","Path":"/admin/x"}]}`),
			answer{200, "", `{"decisions":[{"action":"deny","signal":"robots-wildcard"}]}` + "\n"}, false},
		{"batch empty", "POST", "/v1/batch", []byte(`{"queries":[]}`),
			answer{200, "", `{"decisions":[]}` + "\n"}, false},
		{"batch wrong method", "GET", "/v1/batch", nil,
			answer{405, "", "POST only\n"}, false},
		{"batch malformed", "POST", "/v1/batch", []byte(`{"queries":[{"host":`),
			answer{400, "", "bad batch: unexpected EOF\n"}, false},
		{"batch too many", "POST", "/v1/batch", batchOf(tooMany...),
			answer{413, "", fmt.Sprintf("batch exceeds %d queries\n", MaxBatch)}, false},
		{"batch too large", "POST", "/v1/batch", oversize,
			answer{400, "", "bad batch: http: request body too large\n"}, false},
		{"unknown route", "GET", "/v1/nope", nil,
			answer{404, "", "404 page not found\n"}, false},
		{"healthz", "GET", "/healthz", nil,
			answer{200, "", "ok\n"}, false},
		{"decide limited", "GET", "/v1/decide?host=plain.test&agent=GPTBot&path=/", nil,
			answer{429, "", "rate limited\n"}, true},
		{"batch limited", "POST", "/v1/batch", batchOf(Query{"plain.test", "GPTBot", "/"}),
			answer{429, "", "rate limited\n"}, true},
	}
	for _, tc := range cases {
		host := "203.0.113.60"
		if tc.limited {
			host = "203.0.113.61"
		}
		wire := do(stock, host, tc.method, tc.target, tc.body)
		got := do(fast, host, tc.method, tc.target, tc.body)
		if wire != got {
			t.Errorf("%s: over the wire %+v, in-process %+v", tc.name, wire, got)
		}
		want := tc.want
		if want.status == http.StatusOK && tc.target != "/healthz" {
			want.version = snap.Version
		}
		if got.answer != want {
			t.Errorf("%s: answer %+v, want %+v", tc.name, got.answer, want)
		}
		if tc.limited && (got.retryAfter != "2" || got.retryAfterMs != "1500") {
			t.Errorf("%s: Retry-After %q, X-Retry-After-Ms %q; want 2 and 1500", tc.name, got.retryAfter, got.retryAfterMs)
		}
	}

	var st Stats
	if err := json.Unmarshal([]byte(do(fast, "203.0.113.60", "GET", "/v1/stats", nil).body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Hosts != 6 || st.Version != "test" || st.Queries < 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// limitedAnswerer refuses every batch with its quota error.
type limitedAnswerer struct{ err *RateLimitError }

func (l limitedAnswerer) Answer(context.Context, []Query, []Decision) ([]Decision, string, error) {
	return nil, "", l.err
}
