package policyd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
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
	for _, c := range cases {
		if got := svc.Decide(c.q); got != c.want {
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
	batch := svc.DecideBatch(qs, make([]Decision, 0, len(qs)))
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
	// Warm every (host, agent) pair once (the compile already did).
	for _, q := range qs {
		svc.Decide(q)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		svc.Decide(qs[i%len(qs)])
		i++
	}); allocs != 0 {
		t.Fatalf("Decide allocated %v/op on the cached hot path, want 0", allocs)
	}
	out := make([]Decision, 0, len(qs))
	if allocs := testing.AllocsPerRun(1000, func() {
		out = svc.DecideBatch(qs, out[:0])
	}); allocs != 0 {
		t.Fatalf("DecideBatch allocated %v/op on the cached hot path, want 0", allocs)
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
	j := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		svc.Decide(Query{hosts[j%len(hosts)], fresh[j], "/admin/x"})
		j++
	}); allocs != 0 {
		t.Fatalf("Decide allocated %v/op for never-seen off-roster agents, want 0", allocs)
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
			out := make([]Decision, 0, len(qs))
			for i := 0; i < decides; i++ {
				q := qs[(i+r)%len(qs)]
				d := svc.Decide(q)
				if q.Host == "unknown.test" && d != (Decision{allow, signalNone}) {
					t.Errorf("unknown host decided %v", d)
					return
				}
				if i%64 == 0 {
					out = svc.DecideBatch(qs, out[:0])
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

func TestHTTPAPI(t *testing.T) {
	snap := buildTestSnapshot(t)
	svc := NewService(snap)
	h := NewHandler(svc)

	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		return w
	}

	w := get("/v1/decide?host=blocked.test&agent=GPTBot&path=/")
	if w.Code != http.StatusOK {
		t.Fatalf("decide status %d: %s", w.Code, w.Body)
	}
	var dj DecisionJSON
	if err := json.Unmarshal(w.Body.Bytes(), &dj); err != nil {
		t.Fatal(err)
	}
	if dj.Action != "block" || dj.Signal != "blocker" {
		t.Fatalf("decide = %+v", dj)
	}

	if w := get("/v1/decide?agent=GPTBot"); w.Code != http.StatusBadRequest {
		t.Fatalf("missing host: status %d", w.Code)
	}

	req := BatchRequest{Queries: []Query{
		{"plain.test", "GPTBot", "/admin/x"},
		{"unknown.test", "CCBot", "/"},
	}}
	body, _ := json.Marshal(req)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Decisions) != 2 || resp.Decisions[0].Action != "deny" || resp.Decisions[1].Action != "allow" {
		t.Fatalf("batch = %+v", resp.Decisions)
	}

	w = get("/v1/stats")
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Hosts != 6 || st.Version != "test" || st.Queries < 3 {
		t.Fatalf("stats = %+v", st)
	}
	if w := get("/healthz"); !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz = %q", w.Body)
	}
}
