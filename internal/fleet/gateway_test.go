package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/policyd"
)

// buildCorpusSnapshot compiles the bench-scale corpus month used across
// the policyd test suite (~2k hosts at scale 0.05).
func buildCorpusSnapshot(t testing.TB, snapIdx int) *policyd.Snapshot {
	t.Helper()
	ctx := context.Background()
	c, err := corpus.New(ctx, corpus.Config{Seed: 20251028, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := policyd.FromCorpus(ctx, c, snapIdx, 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// corpusWorkload builds n queries cycling the snapshot's hosts against a
// mixed agent/path roster — every host, AI and non-AI agents, matcher
// corner paths.
func corpusWorkload(snap *policyd.Snapshot, n int) []policyd.Query {
	hosts := snap.Hosts()
	agents := []string{"GPTBot", "CCBot", "Google-Extended", "Googlebot", "Mozilla", "UnknownCrawler9000"}
	paths := []string{"/", "/about.html", "/admin/", "/gallery/2024/work.JPG", "/search?q=art", "/piece.webp"}
	qs := make([]policyd.Query, n)
	for i := range qs {
		qs[i] = policyd.Query{
			Host:  hosts[i%len(hosts)],
			Agent: agents[(i/len(hosts))%len(agents)],
			Path:  paths[(i/7)%len(paths)],
		}
	}
	return qs
}

// TestGatewayParity is the fleet's correctness anchor: 100k corpus
// queries routed through the gateway must produce exactly the decisions
// a direct replica produces, on both wires. Binary: every batch through
// the gateway's frame listener vs in-process DecideBatch. JSON:
// /v1/batch through the gateway vs the in-process decisions, plus
// byte-identical /v1/decide bodies against a direct replica.
func TestGatewayParity(t *testing.T) {
	snap := buildCorpusSnapshot(t, corpus.GPTBotAnnouncedIndex)
	f, err := NewSimFleet(snap, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	direct := policyd.NewService(snap)
	qs := corpusWorkload(snap, 100_000)
	want := direct.DecideBatch(qs, make([]policyd.Decision, 0, len(qs)))

	t.Run("frame", func(t *testing.T) {
		fc, err := f.DialFrameV2(ctx, f.GatewayFrameAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		got := make([]policyd.Decision, 0, 512)
		const batch = 256
		checked := 0
		for off := 0; off < len(qs); off += batch {
			end := off + batch
			if end > len(qs) {
				end = len(qs)
			}
			got, version, err := fc.Decide(qs[off:end], got[:0])
			if err != nil {
				t.Fatal(err)
			}
			if version != snap.Version {
				t.Fatalf("batch served from version %q, want %q", version, snap.Version)
			}
			for i, d := range got {
				if d != want[off+i] {
					q := qs[off+i]
					t.Fatalf("query (%s,%s,%s): gateway %v/%v, direct %v/%v",
						q.Host, q.Agent, q.Path, d.Action, d.Signal, want[off+i].Action, want[off+i].Signal)
				}
				checked++
			}
		}
		if checked != len(qs) {
			t.Fatalf("checked %d of %d", checked, len(qs))
		}
		t.Logf("frame wire: %d decisions parity-checked through the gateway", checked)
	})

	t.Run("json", func(t *testing.T) {
		client := f.Client()
		const batch = 500
		checked := 0
		for off := 0; off < len(qs); off += batch {
			end := off + batch
			if end > len(qs) {
				end = len(qs)
			}
			body, _ := json.Marshal(policyd.BatchRequest{Queries: qs[off:end]})
			resp, err := client.Post(f.GatewayURL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("batch status %d", resp.StatusCode)
			}
			if v := resp.Header.Get("X-Policyd-Version"); v != snap.Version {
				t.Fatalf("X-Policyd-Version %q, want %q", v, snap.Version)
			}
			var br policyd.BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if len(br.Decisions) != end-off {
				t.Fatalf("%d decisions for %d queries", len(br.Decisions), end-off)
			}
			for i, d := range br.Decisions {
				w := want[off+i].JSON()
				if d != w {
					t.Fatalf("query %d: gateway %+v, direct %+v", off+i, d, w)
				}
				checked++
			}
		}
		t.Logf("json wire: %d decisions parity-checked through the gateway", checked)
	})

	t.Run("decide-bytes", func(t *testing.T) {
		// The single-decision endpoint must be byte-identical to a direct
		// replica (same pre-rendered bodies), so gateway and replica are
		// interchangeable to byte-sensitive clients.
		client := f.Client()
		for i := 0; i < 500; i++ {
			q := qs[i*37%len(qs)]
			url := fmt.Sprintf("/v1/decide?host=%s&agent=%s&path=%s", q.Host, q.Agent, q.Path)
			viaGW := fetchBody(t, client, f.GatewayURL+url)
			viaReplica := fetchBody(t, client, f.ReplicaURLs[0]+url)
			if !bytes.Equal(viaGW, viaReplica) {
				t.Fatalf("decide body differs for %+v:\n gw: %q\n rep: %q", q, viaGW, viaReplica)
			}
		}
		// A replica names its snapshot on the JSON wire as the gateway
		// does (both serve policyd.NewHandlerFor).
		q := qs[0]
		resp, err := client.Get(f.ReplicaURLs[0] + fmt.Sprintf("/v1/decide?host=%s&agent=%s&path=%s", q.Host, q.Agent, q.Path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v := resp.Header.Get("X-Policyd-Version"); v != snap.Version {
			t.Fatalf("replica /v1/decide X-Policyd-Version %q, want %q", v, snap.Version)
		}
		body, _ := json.Marshal(policyd.BatchRequest{Queries: qs[:8]})
		resp, err = client.Post(f.ReplicaURLs[0]+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v := resp.Header.Get("X-Policyd-Version"); v != snap.Version {
			t.Fatalf("replica /v1/batch X-Policyd-Version %q, want %q", v, snap.Version)
		}
	})
}

func fetchBody(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// straddleSnapshot builds a synthetic snapshot where every host decides
// identically — so a mixed batch response proves a version straddle.
func straddleSnapshot(t *testing.T, version string, deny bool, hosts int) *policyd.Snapshot {
	t.Helper()
	b := &policyd.Builder{}
	cfg := policyd.HostConfig{}
	if deny {
		cfg.RobotsTxt = "User-agent: *\nDisallow: /\n"
	}
	for i := 0; i < hosts; i++ {
		b.Add(fmt.Sprintf("h%03d.test", i), cfg)
	}
	snap, err := b.Build(context.Background(), version, 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestBatchNeverStraddlesVersion hammers a 3-replica fleet with
// scattered batches while swapper goroutines flip every replica between
// an allow-all and a deny-all snapshot. Every batch response must be
// homogeneous and match its reported version — a single mixed batch
// means the gateway split one client batch across a rollover. Run under
// -race this also proves the routing path is data-race clean.
func TestBatchNeverStraddlesVersion(t *testing.T) {
	snapA := straddleSnapshot(t, "vAAA", false, 96)
	snapB := straddleSnapshot(t, "vBBB", true, 96)
	f, err := NewSimFleet(snapA, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	// One batch spanning all 96 hosts: guaranteed to scatter across
	// replicas (the balance test pins that 3 replicas all own keys).
	var qs []policyd.Query
	for i := 0; i < 96; i++ {
		qs = append(qs, policyd.Query{Host: fmt.Sprintf("h%03d.test", i), Agent: "GPTBot", Path: "/x"})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ri := range f.Services {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			flip := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				if flip {
					f.Swap(ri, snapA)
				} else {
					f.Swap(ri, snapB)
				}
				flip = !flip
				time.Sleep(time.Duration(200+150*ri) * time.Microsecond)
			}
		}(ri)
	}

	var clientWG sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 2; w++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			fc, err := f.DialFrameV2(ctx, f.GatewayFrameAddr)
			if err != nil {
				errs <- err
				return
			}
			defer fc.Close()
			out := make([]policyd.Decision, 0, len(qs))
			for iter := 0; iter < 400; iter++ {
				out, version, err := fc.Decide(qs, out[:0])
				if err != nil {
					errs <- err
					return
				}
				first := out[0]
				for i, d := range out {
					if d != first {
						errs <- fmt.Errorf("iter %d: batch straddles versions: out[0]=%v/%v out[%d]=%v/%v (reported %s)",
							iter, first.Action, first.Signal, i, d.Action, d.Signal, version)
						return
					}
				}
				wantAllow := version == "vAAA"
				if first.Allowed() != wantAllow {
					errs <- fmt.Errorf("iter %d: version %s but decisions %v/%v", iter, version, first.Action, first.Signal)
					return
				}
			}
		}()
	}
	clientWG.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// straddleBatch is one query per straddleSnapshot host: a batch whose
// hosts hash to every replica of a small fleet.
func straddleBatch(hosts int) []policyd.Query {
	qs := make([]policyd.Query, hosts)
	for i := range qs {
		qs[i] = policyd.Query{Host: fmt.Sprintf("h%03d.test", i), Agent: "GPTBot", Path: "/x"}
	}
	return qs
}

// TestBatchRoutesWhole: a batch whose hosts hash to all three replicas
// is answered by exactly one of them — the one its first host hashes to
// on a ring built the way the gateway builds its own.
func TestBatchRoutesWhole(t *testing.T) {
	f, err := NewSimFleet(straddleSnapshot(t, "v1", false, 96), 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fc, err := f.DialFrameV2(context.Background(), f.GatewayFrameAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	qs := straddleBatch(96)
	ring := NewRing([]string{"policyd-0", "policyd-1", "policyd-2"}, 0)
	owners := map[int]bool{}
	for _, q := range qs {
		owners[ring.Pick(q.Host)] = true
	}
	if len(owners) != 3 {
		t.Fatalf("batch hosts hash to %d of 3 replicas; the test needs all three", len(owners))
	}
	before := f.GW.Stats()
	if _, _, err := fc.Decide(qs, nil); err != nil {
		t.Fatal(err)
	}
	after := f.GW.Stats()
	target := ring.Pick(qs[0].Host)
	for i := range after.Replicas {
		want := uint64(0)
		if i == target {
			want = 96
		}
		if got := after.Replicas[i].Routed - before.Replicas[i].Routed; got != want {
			t.Errorf("replica %d answered %d of the batch's decisions, want %d (first host hashes to replica %d)", i, got, want, target)
		}
	}
}

// TestGatewayFrameAllocs: once connections and buffers are warm, a
// mixed-host batch crosses client, gateway and replica without a single
// allocation. Not parallel: AllocsPerRun counts the whole process.
func TestGatewayFrameAllocs(t *testing.T) {
	f, err := NewSimFleet(straddleSnapshot(t, "v1", false, 96), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fc, err := f.DialFrameV2(context.Background(), f.GatewayFrameAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	qs := straddleBatch(64)
	out := make([]policyd.Decision, 0, len(qs))
	decide := func() {
		if out, _, err = fc.Decide(qs, out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		decide()
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Fatalf("%v allocations per 64-query batch through the gateway, want 0", allocs)
	}
}

// TestFrameLoopContract drives the one frame loop
// (policyd.ServeFramesFrom) through a replica's listener and the
// gateway's: anything but a well-formed RPB2 stream closes the
// connection without a response byte, and a quota rejection — which
// only the gateway can produce — is answered in band on a connection
// that keeps serving.
func TestFrameLoopContract(t *testing.T) {
	t0 := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	// A clock that never advances: buckets hold their 4-token burst and
	// never refill.
	f, err := NewSimFleet(straddleSnapshot(t, "v1", false, 8), 2, Config{Rate: 1, Burst: 4, Now: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	batch, err := policyd.AppendQueryFrame(nil, straddleBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	closes := []struct {
		name string
		send []byte
	}{
		{"rpb1-preamble", append([]byte("RPB1"), batch...)},
		{"garbage-preamble", append([]byte("GET "), batch...)},
		{"oversized-length", binary.LittleEndian.AppendUint32(policyd.FrameMagicV2[:], 4<<20+1)},
	}
	for listener, addr := range map[string]string{"replica": f.ReplicaFrameAddrs[0], "gateway": f.GatewayFrameAddr} {
		for _, tc := range closes {
			t.Run(listener+"/"+tc.name, func(t *testing.T) {
				c, err := f.NW.Dial(ctx, ClientIP, addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Write(tc.send); err != nil {
					t.Fatal(err)
				}
				if got, err := io.ReadAll(c); err != nil || len(got) != 0 {
					t.Fatalf("server answered %d bytes (err %v), want a bare close", len(got), err)
				}
			})
		}
	}

	// None of the streams above reached admission, so GPTBot's bucket
	// still holds its whole burst.
	t.Run("gateway/quota", func(t *testing.T) {
		fc, err := f.DialFrameV2(ctx, f.GatewayFrameAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		_, _, err = fc.Decide(straddleBatch(5), nil)
		var rle *policyd.RateLimitError
		if !errors.As(err, &rle) || rle.RetryAfter <= 0 {
			t.Fatalf("5 queries against a burst of 4: error %v, want *RateLimitError with a Retry-After", err)
		}
		ds, version, err := fc.Decide(straddleBatch(4), nil)
		if err != nil || len(ds) != 4 || version != "v1" {
			t.Fatalf("next batch on the same connection: %d decisions, version %q, err %v", len(ds), version, err)
		}
	})
}

// TestGatewayRateLimit covers 429 semantics on both wires with a fixed
// clock: burst exhaustion answers 429 + Retry-After over HTTP and a
// *RateLimitError frame over the binary wire; advancing the clock
// re-admits; /v1/quotas exposes the ledger.
func TestGatewayRateLimit(t *testing.T) {
	snap := straddleSnapshot(t, "v1", false, 8)
	clk := newFakeClock()
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clk.t
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clk.advance(d)
		mu.Unlock()
	}
	f, err := NewSimFleet(snap, 2, Config{Rate: 100, Burst: 100, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	client := f.Client()

	url := f.GatewayURL + "/v1/decide?host=h000.test&agent=GPTBot&path=/"
	for i := 0; i < 100; i++ {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d before burst exhausted", i, resp.StatusCode)
		}
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d after burst exhausted, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-Retry-After-Ms") == "" {
		t.Fatalf("429 without Retry-After headers: %+v", resp.Header)
	}

	// Binary wire: same bucket, in-band error, connection stays usable.
	fc, err := f.DialFrameV2(ctx, f.GatewayFrameAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	qs := []policyd.Query{{Host: "h000.test", Agent: "GPTBot", Path: "/"}}
	_, _, err = fc.Decide(qs, nil)
	var rle *policyd.RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("frame wire error %v, want *RateLimitError", err)
	}
	if rle.RetryAfter <= 0 {
		t.Fatalf("RateLimitError without Retry-After: %+v", rle)
	}
	advance(rle.RetryAfter + time.Second)
	if _, _, err := fc.Decide(qs, nil); err != nil {
		t.Fatalf("frame wire still limited after advancing the clock: %v", err)
	}

	// Other tenants were never throttled.
	if _, _, err := fc.Decide([]policyd.Query{{Host: "h000.test", Agent: "CCBot", Path: "/"}}, nil); err != nil {
		t.Fatalf("fresh tenant throttled: %v", err)
	}

	var acc Accounting
	if err := json.Unmarshal(fetchBody(t, client, f.GatewayURL+"/v1/quotas"), &acc); err != nil {
		t.Fatal(err)
	}
	if len(acc.Tenants) != 2 {
		t.Fatalf("quotas: %+v", acc)
	}
	var gpt TenantQuota
	for _, tq := range acc.Tenants {
		if tq.Tenant == "GPTBot" {
			gpt = tq
		}
	}
	if gpt.Granted != 101 || gpt.Throttled != 2 {
		t.Fatalf("GPTBot ledger %+v, want granted 101 throttled 2", gpt)
	}
}

// TestWatchInvalidation: a client watching the gateway hears exactly the
// fleet-wide rollovers — the initial agreed version, nothing while the
// fleet is split mid-rollover, and the new version once every replica
// swapped.
func TestWatchInvalidation(t *testing.T) {
	snapA := straddleSnapshot(t, "vAAA", false, 8)
	snapB := straddleSnapshot(t, "vBBB", true, 8)
	f, err := NewSimFleet(snapA, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	c, err := f.DialWatch(ctx, f.GatewayWatchAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lines := make(chan string, 16)
	go policyd.WatchVersions(c, func(v string) bool {
		lines <- v
		return true
	})
	readLine := func(within time.Duration) (string, bool) {
		select {
		case v := <-lines:
			return v, true
		case <-time.After(within):
			return "", false
		}
	}

	// The watch loops converge on vAAA shortly after Start.
	v, ok := readLine(5 * time.Second)
	if !ok || v != "vAAA" {
		t.Fatalf("initial fleet version %q ok=%v, want vAAA", v, ok)
	}

	// Half-rolled fleet: no announcement.
	f.Swap(0, snapB)
	if v, ok := readLine(300 * time.Millisecond); ok {
		t.Fatalf("split fleet announced %q", v)
	}

	// Rollover completes: exactly one vBBB announcement.
	f.Swap(1, snapB)
	v, ok = readLine(5 * time.Second)
	if !ok || v != "vBBB" {
		t.Fatalf("rollover announced %q ok=%v, want vBBB", v, ok)
	}

	// Stats reflect convergence.
	var st GatewayStats
	if err := json.Unmarshal(fetchBody(t, f.Client(), f.GatewayURL+"/v1/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != "vBBB" || st.Skew != 0 {
		t.Fatalf("stats after rollover: %+v", st)
	}
}
