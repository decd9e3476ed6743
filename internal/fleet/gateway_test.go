package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/netsim"
	"repro/internal/obs"
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
// the gateway's frame listener vs in-process DecideBatchVersioned. JSON:
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
	want, _ := direct.DecideBatchVersioned(qs, make([]policyd.Decision, 0, len(qs)))

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
// 96-host batches while swapper goroutines flip every replica between
// an allow-all and a deny-all snapshot. The gateway sends each batch
// whole to the replica owning its first host, so every batch response
// must be homogeneous and match the version it reports — a mixed batch
// means one answer mixed two snapshots, and a mismatch means the
// reported version is not the one that answered. Run under -race this
// also proves the routing path is data-race clean.
func TestBatchNeverStraddlesVersion(t *testing.T) {
	snapA := straddleSnapshot(t, "vAAA", false, 96)
	snapB := straddleSnapshot(t, "vBBB", true, 96)
	f, err := NewSimFleet(snapA, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	// One batch spanning all 96 hosts, which hash to every replica (the
	// balance test pins that 3 replicas all own keys): routing must still
	// answer it from one replica's snapshot.
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
	bound := 0.0
	if raceEnabled {
		bound = 1 // a pooled buffer the race detector dropped is made again
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs > bound {
		t.Fatalf("%v allocations per 64-query batch through the gateway, want at most %v", allocs, bound)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

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

	// The gateway's probe: an empty batch sent straight to a replica is
	// answered with zero decisions and the replica's current version.
	t.Run("replica/empty-batch", func(t *testing.T) {
		fc, err := f.DialFrameV2(ctx, f.ReplicaFrameAddrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		for _, want := range []string{"v1", "v2"} {
			if want != "v1" {
				f.Swap(0, straddleSnapshot(t, want, false, 8))
			}
			ds, version, err := fc.Decide(nil, nil)
			if err != nil || len(ds) != 0 || version != want {
				t.Fatalf("empty batch: %d decisions, version %q, err %v; want 0 decisions at %s", len(ds), version, err, want)
			}
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
	if direct := f.GW.Limiter().Accounting(); !reflect.DeepEqual(direct, acc) {
		t.Fatalf("Limiter().Accounting() = %+v, /v1/quotas served %+v", direct, acc)
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func gatewayStats(t *testing.T, f *SimFleet) GatewayStats {
	t.Helper()
	var st GatewayStats
	if err := json.Unmarshal(fetchBody(t, f.Client(), f.GatewayURL+"/v1/stats"), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetVersionConvergence: the probers move the fleet version
// exactly at fleet-wide rollovers — the initial agreed version, nothing
// while the fleet is split mid-rollover, and the new version, counted
// once, when every replica has swapped. No client traffic flows, so
// every version the gateway learns comes from a probe. The fleet runs
// in a bubble: on synctest's clock the version moves within one
// probeInterval of the second Swap (plus waitFor's 1 ms poll).
func TestFleetVersionConvergence(t *testing.T) {
	snapA := straddleSnapshot(t, "vAAA", false, 8)
	snapB := straddleSnapshot(t, "vBBB", true, 8)
	bubble(t, func() {
		f, err := NewSimFleet(snapA, 2, Config{})
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()

		waitFor(t, "fleet version vAAA", func() bool { return f.GW.FleetVersion() == "vAAA" })
		notified := mSwapNotify.Value()

		// Half-rolled fleet: the gateway sees the split, announces nothing.
		f.Swap(0, snapB)
		waitFor(t, "skew 1 on /v1/stats", func() bool { return gatewayStats(t, f).Skew == 1 })
		time.Sleep(5 * probeInterval)
		if st := gatewayStats(t, f); st.Version != "vAAA" || st.Skew != 1 {
			t.Fatalf("split fleet: stats %+v, want version vAAA skew 1", st)
		}
		if n := mSwapNotify.Value() - notified; n != 0 {
			t.Fatalf("split fleet counted %d rollovers", n)
		}

		// Rollover completes: vBBB, counted exactly once.
		f.Swap(1, snapB)
		swapped := time.Now()
		waitFor(t, "fleet version vBBB", func() bool { return f.GW.FleetVersion() == "vBBB" })
		if elapsed := time.Since(swapped); syntheticClock && elapsed > probeInterval+time.Millisecond {
			t.Errorf("fleet version moved %v of synthetic time after the rollover, want within one probeInterval (%v)", elapsed, probeInterval)
		}
		time.Sleep(5 * probeInterval)
		if n := mSwapNotify.Value() - notified; n != 1 {
			t.Fatalf("rollover counted %d times, want 1", n)
		}
		if st := gatewayStats(t, f); st.Version != "vBBB" || st.Skew != 0 {
			t.Fatalf("stats after rollover: %+v", st)
		}
	})
}

// TestProbeIsNotAClientBatch: probes reach the replicas but leave every
// client-batch tally alone — Stats().Batches, fleet_route_total and
// fleet_replica_latency_ns.
func TestProbeIsNotAClientBatch(t *testing.T) {
	f, err := NewSimFleet(straddleSnapshot(t, "v1", false, 8), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, "fleet version v1", func() bool { return f.GW.FleetVersion() == "v1" })

	replicaFrames := obs.NewCounter(`policyd_wire_requests_total{wire="frame"}`, "")
	latency := func() (n uint64) {
		for _, r := range f.GW.replicas {
			n += r.mLatency.Snapshot().Count
		}
		return n
	}
	before, frames0, lat0 := f.GW.Stats(), replicaFrames.Value(), latency()
	waitFor(t, "ten more probes", func() bool { return replicaFrames.Value()-frames0 >= 10 })
	after := f.GW.Stats()
	if after.Batches != before.Batches {
		t.Errorf("probes counted as %d client batches", after.Batches-before.Batches)
	}
	for i := range after.Replicas {
		if got := after.Replicas[i].Routed - before.Replicas[i].Routed; got != 0 {
			t.Errorf("probes added %d to fleet_route_total of replica %d", got, i)
		}
	}
	if got := latency() - lat0; got != 0 {
		t.Errorf("probes observed %d replica latencies", got)
	}
}

// probers counts live prober goroutines in the process.
func probers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*replica).probeLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestProbeUnreachableReplica closes one replica's frame listener, which
// closes its live conns too, and restarts the probers: the new ones must
// find that replica unreachable on every tick. Meanwhile the fleet version must not move
// to a version the gateway cannot confirm on every replica, traffic to
// the healthy replica must still be answered correctly, and cancelling
// ctx must stop every prober.
func TestProbeUnreachableReplica(t *testing.T) {
	snapA := straddleSnapshot(t, "vAAA", false, 96)
	snapB := straddleSnapshot(t, "vBBB", true, 96)
	f, err := NewSimFleet(snapA, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, "fleet version vAAA", func() bool { return f.GW.FleetVersion() == "vAAA" })

	f.cancel()
	waitFor(t, "probers to exit after cancel", func() bool { return probers() == 0 })
	for _, ln := range f.listeners {
		if ln.Addr().String() == f.ReplicaFrameAddrs[0] {
			ln.Close()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.GW.Start(ctx)
	waitFor(t, "one prober per replica", func() bool { return probers() == 2 })

	f.SwapAll(snapB)
	waitFor(t, "replica 1 to report vBBB", func() bool { return f.GW.Stats().Replicas[1].Version == "vBBB" })
	time.Sleep(5 * probeInterval)
	if st := f.GW.Stats(); st.Version != "vAAA" || st.Skew != 1 || st.Replicas[0].Version != "vAAA" {
		t.Fatalf("fleet announced past an unreachable replica: %+v", st)
	}

	// A batch whose first host hashes to the healthy replica is answered
	// there, from vBBB's deny-all policy.
	ring := NewRing([]string{"policyd-0", "policyd-1"}, 0)
	qs := straddleBatch(96)
	for ring.Pick(qs[0].Host) != 1 {
		qs = qs[1:]
	}
	fc, err := f.DialFrameV2(context.Background(), f.GatewayFrameAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	ds, version, err := fc.Decide(qs, nil)
	if err != nil || version != "vBBB" || len(ds) != len(qs) {
		t.Fatalf("healthy replica: %d decisions for %d queries, version %q, err %v", len(ds), len(qs), version, err)
	}
	for i, d := range ds {
		if d.Action != policyd.Deny {
			t.Fatalf("query %d: %v/%v, want deny from vBBB", i, d.Action, d.Signal)
		}
	}

	cancel()
	waitFor(t, "probers to exit after cancel", func() bool { return probers() == 0 })
}

// TestCloseEndsLiveFrameConns: Close ends the conns the fleet's
// listeners accepted, not only the listeners, so a frame client dialed
// to a replica before Close is not answered after it.
func TestCloseEndsLiveFrameConns(t *testing.T) {
	f, err := NewSimFleet(straddleSnapshot(t, "v1", false, 8), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fc, err := f.DialFrameV2(context.Background(), f.ReplicaFrameAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	qs := straddleBatch(8)
	if _, _, err := fc.Decide(qs, nil); err != nil {
		t.Fatalf("Decide before Close: %v", err)
	}
	f.Close()
	if ds, version, err := fc.Decide(qs, nil); err == nil {
		t.Fatalf("Decide after Close answered %d decisions at version %q", len(ds), version)
	}
}

// TestRetryDialsAfterReplicaRestart: a replica restart kills every conn
// the gateway pooled to it. The batch that meets the first dead conn
// closes the rest and is answered on one fresh dial; later batches reuse
// that conn and dial no more.
func TestRetryDialsAfterReplicaRestart(t *testing.T) {
	nw := netsim.New()
	svc := policyd.NewService(straddleSnapshot(t, "v1", false, 8))
	stop := serveReplica(t, nw, "10.0.0.96", svc)
	var dials atomic.Int64
	gw, err := NewGateway(Config{
		Replicas: []ReplicaConfig{{Name: "r0", FrameAddr: "10.0.0.96:81"}},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			dials.Add(1)
			return nw.Dial(ctx, ClientIP, addr)
		},
	})
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer gw.Close()

	ctx := context.Background()
	r := gw.replicas[0]
	var warm []*policyd.FrameClientV2
	for i := 0; i < 3; i++ {
		fc, err := r.get(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, fc)
	}
	for _, fc := range warm {
		r.put(fc)
	}
	stop() // closes the live conns, as a replica restart does
	stop = serveReplica(t, nw, "10.0.0.96", svc)
	defer stop()

	dials.Store(0)
	eof := mReplicaErrEOF.Value()
	qs := straddleBatch(8)
	for batch := 0; batch < 3; batch++ {
		ds, _, err := gw.Answer(ctx, qs, nil)
		if err != nil {
			t.Fatalf("batch %d after a replica restart with %d conns pooled: %v", batch, len(warm), err)
		}
		if len(ds) != len(qs) {
			t.Fatalf("batch %d: %d decisions for %d queries", batch, len(ds), len(qs))
		}
		want := int64(0)
		if batch == 0 {
			want = 1
		}
		if n := dials.Swap(0); n != want {
			t.Errorf("batch %d after a restart with %d conns pooled dialed %d times, want %d", batch, len(warm), n, want)
		}
	}
	if n := mReplicaErrEOF.Value() - eof; n != 1 {
		t.Errorf("the restart counted %d eof errors, want 1", n)
	}
}

// serveReplica serves svc's frame wire at ip:81 until stop, which closes
// the listener and returns once the server has closed every conn it
// accepted, as a replica's shutdown does. stop may be called again.
func serveReplica(t *testing.T, nw *netsim.Network, ip string, svc *policyd.Service) (stop func()) {
	t.Helper()
	ln, err := nw.Listen(ip, 81)
	if err != nil {
		t.Fatal(err)
	}
	frames := obs.NewCounter(`policyd_wire_requests_total{wire="frame"}`, "")
	served := make(chan error, 1)
	go func() { served <- policyd.ServeFramesFrom(ln, svc, frames) }()
	return sync.OnceFunc(func() {
		ln.Close()
		<-served
	})
}

// TestFailoverToRingSuccessor closes one replica's frame listener, which
// closes its live conns too. Every batch is still answered, each exactly
// as the snapshot decides it: a batch owned by the closed replica fails
// over to its first host's ring successor. Each such batch counts one
// failure, all of class dial: the pool was empty, and a dial to the
// closed listener is refused.
func TestFailoverToRingSuccessor(t *testing.T) {
	snap := buildCorpusSnapshot(t, 0)
	f, err := NewSimFleet(snap, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, ln := range f.listeners {
		if ln.Addr().String() == f.ReplicaFrameAddrs[0] {
			ln.Close()
		}
	}
	fc, err := f.DialFrameV2(context.Background(), f.GatewayFrameAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	before := replicaErrors()
	ring := NewRing([]string{"policyd-0", "policyd-1"}, 0)
	qs := corpusWorkload(snap, 64*40)
	failedOver := uint64(0)
	var got []policyd.Decision
	for off := 0; off < len(qs); off += 64 {
		batch := qs[off : off+64]
		if ring.Pick(batch[0].Host) == 0 {
			failedOver++
		}
		got, _, err = fc.Decide(batch, got[:0])
		if err != nil {
			t.Fatalf("batch at %d: %v", off, err)
		}
		for i, q := range batch {
			if want := snap.Decide(q); got[i] != want {
				t.Fatalf("query %d %+v: %+v through the gateway, %+v from the snapshot", off+i, q, got[i], want)
			}
		}
	}
	if failedOver == 0 || failedOver == uint64(len(qs)/64) {
		t.Fatalf("%d of %d batches owned by the closed replica; the test needs some of each", failedOver, len(qs)/64)
	}
	after := replicaErrors()
	for class, want := range map[string]uint64{"dial": failedOver, "timeout": 0, "garbled": 0, "eof": 0} {
		if n := after[class] - before[class]; n != want {
			t.Errorf("%d %s errors for %d failed-over batches, want %d", n, class, failedOver, want)
		}
	}
}

// TestFailoverPastStalePools restarts both replicas of a warmed fleet,
// which leaves every pooled conn dead, as an idle spell past the
// replicas' frame read timeout does. A batch that meets a dead conn at
// its owner drains the owner's pool and fails over on a fresh dial, never
// on the successor's pooled conns, which are as dead. Every batch is
// answered as the snapshot decides it, and each replica counts one eof:
// its first batch's.
func TestFailoverPastStalePools(t *testing.T) {
	nw := netsim.New()
	snap := straddleSnapshot(t, "v1", false, 96)
	svc := policyd.NewService(snap)
	ips := []string{"10.0.0.97", "10.0.0.98"}
	stops := make([]func(), len(ips))
	var rcs []ReplicaConfig
	for i, ip := range ips {
		stops[i] = serveReplica(t, nw, ip, svc)
		rcs = append(rcs, ReplicaConfig{Name: fmt.Sprintf("r%d", i), FrameAddr: ip + ":81"})
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	gw, err := NewGateway(Config{
		Replicas: rcs,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nw.Dial(ctx, ClientIP, addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ctx := context.Background()
	for _, r := range gw.replicas {
		var warm []*policyd.FrameClientV2
		for i := 0; i < 3; i++ {
			fc, err := r.get(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			warm = append(warm, fc)
		}
		for _, fc := range warm {
			r.put(fc)
		}
	}
	for i, ip := range ips {
		stops[i]()
		stops[i] = serveReplica(t, nw, ip, svc)
	}

	before := replicaErrors()
	qs := straddleBatch(96)
	var owned [2]int
	var got []policyd.Decision
	for off := 0; off+4 <= len(qs); off += 4 {
		batch := qs[off : off+4]
		owned[gw.ring.Pick(batch[0].Host)]++
		got, _, err = gw.Answer(ctx, batch, got[:0])
		if err != nil {
			t.Fatalf("batch at %d after both replicas restarted: %v", off, err)
		}
		for i, q := range batch {
			if want := snap.Decide(q); got[i] != want {
				t.Fatalf("query %d %+v: %+v through the gateway, %+v from the snapshot", off+i, q, got[i], want)
			}
		}
	}
	if owned[0] == 0 || owned[1] == 0 {
		t.Fatalf("batches owned per replica %v; the test needs some on each", owned)
	}
	after := replicaErrors()
	for class, want := range map[string]uint64{"dial": 0, "timeout": 0, "garbled": 0, "eof": 2} {
		if n := after[class] - before[class]; n != want {
			t.Errorf("%d %s errors after a restart of both replicas, want %d", n, class, want)
		}
	}
}

// TestIdlePooledConnsRetire warms both replicas' pools, then lets the
// fleet idle, on synctest's clock. After a spell under the replicas'
// frame read timeout, every batch reuses a pooled conn. After a spell
// past it, in which each replica closed its idle conns, the gateway
// retires the pooled ones unused: the first batch to each replica dials
// once, every batch is answered by its owner, and
// fleet_replica_errors_total does not move.
func TestIdlePooledConnsRetire(t *testing.T) {
	if !syntheticClock {
		t.Skip("the idle spell is minutes long; run with GOEXPERIMENT=synctest")
	}
	bubble(t, func() {
		nw := netsim.New()
		svc := policyd.NewService(straddleSnapshot(t, "v1", false, 96))
		var rcs []ReplicaConfig
		for i, ip := range []string{"10.0.0.91", "10.0.0.92"} {
			defer serveReplica(t, nw, ip, svc)()
			rcs = append(rcs, ReplicaConfig{Name: fmt.Sprintf("idle%d", i), FrameAddr: ip + ":81"})
		}
		var dials atomic.Int64
		gw, err := NewGateway(Config{
			Replicas: rcs,
			Dial: func(ctx context.Context, addr string) (net.Conn, error) {
				dials.Add(1)
				return nw.Dial(ctx, ClientIP, addr)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()

		// round answers every 4-query batch once, each by the replica
		// that owns it, and returns the batches each replica owned and
		// the dials the round took.
		qs := straddleBatch(96)
		round := func(what string) (owned [2]int, dialed int64) {
			dials.Store(0)
			var got []policyd.Decision
			for off := 0; off+4 <= len(qs); off += 4 {
				batch := qs[off : off+4]
				o := gw.ring.Pick(batch[0].Host)
				owner := gw.replicas[o]
				owned[o]++
				routed := owner.mRoute.Value()
				if got, _, err = gw.Answer(context.Background(), batch, got[:0]); err != nil {
					t.Fatalf("%s: batch at %d: %v", what, off, err)
				}
				if owner.mRoute.Value() == routed {
					t.Errorf("%s: batch at %d was not answered by its owner %s", what, off, owner.cfg.Name)
				}
			}
			return owned, dials.Load()
		}
		if owned, _ := round("warm-up"); owned[0] == 0 || owned[1] == 0 {
			t.Fatalf("batches owned per replica %v; the test needs some on each", owned)
		}
		errs := replicaErrors()
		for _, c := range []struct {
			idle  time.Duration
			dials int64
		}{
			{maxPooledIdle - time.Second, 0},
			{policyd.FrameReadTimeout + time.Second, 2},
		} {
			time.Sleep(c.idle)
			what := fmt.Sprintf("after %v idle", c.idle)
			if _, dialed := round(what); dialed != c.dials {
				t.Errorf("%s: %d dials, want %d", what, dialed, c.dials)
			}
		}
		after := replicaErrors()
		for class := range after {
			if n := after[class] - errs[class]; n != 0 {
				t.Errorf("%d %s errors counted across idle spells, want 0", n, class)
			}
		}
	})
}

// TestReplicaErrorClasses: a one-replica gateway's failed batch counts
// both of its attempts in the class of the replica's fault.
func TestReplicaErrorClasses(t *testing.T) {
	preamble := len(policyd.FrameMagicV2)
	for _, c := range []struct {
		class string
		serve func(c net.Conn) // nil: no listener, so every dial is refused
	}{
		{"dial", nil},
		{"eof", func(c net.Conn) {
			io.ReadFull(c, make([]byte, preamble+4)) // the preamble and a frame's length
			c.Close()
		}},
		{"garbled", func(c net.Conn) {
			if _, err := io.ReadFull(c, make([]byte, preamble+4)); err == nil {
				c.Write([]byte{2, 0, 0, 0, 0xff, 0xff}) // a frame of an unknown status
			}
			io.Copy(io.Discard, c)
			c.Close()
		}},
	} {
		t.Run(c.class, func(t *testing.T) {
			nw := netsim.New()
			if c.serve != nil {
				ln, err := nw.Listen("10.0.0.95", 81)
				if err != nil {
					t.Fatal(err)
				}
				served := make(chan error, 1)
				go func() { served <- netsim.Serve(ln, c.serve) }()
				defer func() {
					ln.Close()
					<-served
				}()
			}
			gw, err := NewGateway(Config{
				Replicas: []ReplicaConfig{{Name: "faulty", FrameAddr: "10.0.0.95:81"}},
				Dial: func(ctx context.Context, addr string) (net.Conn, error) {
					return nw.Dial(ctx, ClientIP, addr)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			before := replicaErrors()
			if ds, _, err := gw.Answer(context.Background(), straddleBatch(8), nil); err == nil {
				t.Fatalf("a %s fault answered %d decisions", c.class, len(ds))
			}
			after := replicaErrors()
			for class := range after {
				want := uint64(0)
				if class == c.class {
					want = 2
				}
				if n := after[class] - before[class]; n != want {
					t.Errorf("%d %s errors, want %d", n, class, want)
				}
			}
		})
	}
}

// replicaErrors reads fleet_replica_errors_total by class.
func replicaErrors() map[string]uint64 {
	return map[string]uint64{
		"dial":    mReplicaErrDial.Value(),
		"timeout": mReplicaErrTimeout.Value(),
		"garbled": mReplicaErrGarbled.Value(),
		"eof":     mReplicaErrEOF.Value(),
	}
}

// TestJSONTenantsOwnTheirBytes is the buffer-scribbling check for the
// JSON listener: the gateway's limiter keeps one string per tenant
// (agent) it has seen, while the handler reuses its body buffer for the
// next batch. GETs and POST batches with hundreds of distinct agents,
// some escaped (query escapes on every GET; JSON escapes and non-ASCII
// text, which send a batch to encoding/json, in every third round), go
// through one netsim client; /v1/quotas must then list exactly the
// agents sent, each with its count.
//
// The limiter clones each new tenant key, because frame-wire agents
// alias their payload buffer, so this test alone does not catch a
// decodeBatchFast that aliases the body (say, through unsafe.String):
// it fails when that decoder meets a limiter that stops cloning.
// FuzzBatchDecodeMatchesJSON's seeds, run by every go test, catch the
// aliasing decoder by itself: they overwrite the decoded buffer.
func TestJSONTenantsOwnTheirBytes(t *testing.T) {
	snap := straddleSnapshot(t, "v1", false, 8)
	clk := newFakeClock() // frozen: no refill, so counts are exact
	f, err := NewSimFleet(snap, 2, Config{Rate: 1e6, Burst: 1e6, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	client := f.Client()

	want := map[string]uint64{}
	agent := func(i int) string {
		a := fmt.Sprintf("ScribbleBot-%03d/%d.0 (+https://crawler.test/bot?id=%d)", i, i%7, i*31)
		// Every third round's agents carry JSON escapes or non-ASCII
		// text; the other rounds' batches take the hand decoder.
		if i/8%3 == 1 {
			a += [...]string{` "quoted"`, ` \slash`, " Bøt"}[i%3]
		}
		return a
	}
	host := func(i int) string { return fmt.Sprintf("h%03d.test", i%8) }
	for i := 0; i < 400; i += 8 {
		// Three single decides, then a batch of the next five agents.
		for k := i; k < i+3; k++ {
			u := f.GatewayURL + "/v1/decide?" + url.Values{"host": {host(k)}, "agent": {agent(k)}, "path": {"/p"}}.Encode()
			if body := fetchBody(t, client, u); !bytes.Contains(body, []byte(`"action":"allow"`)) {
				t.Fatalf("decide %d: %s", k, body)
			}
			want[agent(k)]++
		}
		var qs []policyd.Query
		for k := i + 3; k < i+8; k++ {
			for r := 0; r <= k%3; r++ { // repeats within a batch, too
				qs = append(qs, policyd.Query{Host: host(k), Agent: agent(k), Path: "/p"})
				want[agent(k)]++
			}
		}
		body, err := json.Marshal(policyd.BatchRequest{Queries: qs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(f.GatewayURL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br policyd.BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(br.Decisions) != len(qs) {
			t.Fatalf("batch at %d: status %d, %d decisions for %d queries, %v", i, resp.StatusCode, len(br.Decisions), len(qs), err)
		}
	}

	var acc Accounting
	if err := json.Unmarshal(fetchBody(t, client, f.GatewayURL+"/v1/quotas"), &acc); err != nil {
		t.Fatal(err)
	}
	if len(acc.Tenants) != len(want) {
		t.Errorf("quotas list %d tenants, %d agents were sent", len(acc.Tenants), len(want))
	}
	for _, tq := range acc.Tenants {
		if n, ok := want[tq.Tenant]; !ok || tq.Granted != n || tq.Throttled != 0 {
			t.Errorf("tenant %q: granted %d throttled %d; sent %d (known %v)", tq.Tenant, tq.Granted, tq.Throttled, n, ok)
		}
	}
}

// TestAnswerHonoursDeadlineOnBlackholedReplica: a replica that accepts
// frame conns, reads everything and never answers must not wedge
// Answer past its context. Under a 200 ms deadline, and under a context
// canceled after 100 ms, Answer returns the context's error well within
// a second; the conns it opened are closed, so the replica's serve
// loops end and nothing outlives the test. The deadline counts one
// timeout error; the cancel, the caller's doing, counts none. With a
// healthy ring successor and a 500 ms deadline, the first attempt's
// budget runs out first: it counts one timeout and the successor answers
// the batch on a fresh dial. The deadline and failover cases run in a
// bubble: on synctest's clock Answer returns after exactly 200 ms, the
// context's deadline and the budget (probeTimeout; that clock starts on
// a budgetGrain boundary, so no rounding adds to it).
func TestAnswerHonoursDeadlineOnBlackholedReplica(t *testing.T) {
	snap := straddleSnapshot(t, "v1", false, 96)
	for _, c := range []struct {
		name      string
		ctx       func() (context.Context, context.CancelFunc)
		successor *policyd.Snapshot // nil: the blackholed replica is the ring's only one
		want      error
		timeouts  uint64
		after     time.Duration // on synctest's clock; 0: not checked
		run       func(*testing.T, func())
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 200*time.Millisecond)
		}, nil, context.DeadlineExceeded, 1, 200 * time.Millisecond, bubble},
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(100*time.Millisecond, cancel)
			return ctx, cancel
		}, nil, context.Canceled, 0, 0, func(_ *testing.T, f func()) { f() }},
		{"failover", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 500*time.Millisecond)
		}, snap, nil, 1, probeTimeout, bubble},
	} {
		c.run(t, func() {
			gw, stop := blackholedGateway(t, c.successor)
			defer stop()
			qs := straddleBatch(96)
			for gw.ring.Pick(qs[0].Host) != 0 {
				qs = qs[1:]
			}
			qs = qs[:min(8, len(qs))]
			ctx, cancel := c.ctx()
			defer cancel()
			timeouts := mReplicaErrTimeout.Value()
			start := time.Now()
			var got []policyd.Decision
			answered := make(chan error, 1)
			go func() {
				var err error
				got, _, err = gw.Answer(ctx, qs, nil)
				answered <- err
			}()
			select {
			case err := <-answered:
				if !errors.Is(err, c.want) {
					t.Errorf("%s: Answer on a blackholed replica returned %v, want %v", c.name, err, c.want)
				}
				if elapsed := time.Since(start); syntheticClock && c.after != 0 && elapsed != c.after {
					t.Errorf("%s: Answer returned after %v of synthetic time, want exactly %v", c.name, elapsed, c.after)
				}
				if n := mReplicaErrTimeout.Value() - timeouts; n != c.timeouts {
					t.Errorf("%s: %d timeout errors counted, want %d", c.name, n, c.timeouts)
				}
				if c.successor != nil && err == nil {
					for i, q := range qs {
						if want := c.successor.Decide(q); got[i] != want {
							t.Errorf("%s: query %+v: %+v from the successor, %+v from the snapshot", c.name, q, got[i], want)
						}
					}
				}
			case <-time.After(time.Second):
				t.Errorf("%s: Answer still blocked on a blackholed replica 1 s into its context", c.name)
			}
		})
	}
}

// blackholedGateway returns a gateway whose first replica accepts frame
// conns, reads everything and never answers, and a func that closes
// the gateway and every replica and waits for their serve loops. With
// a successor snapshot the ring has a second, healthy replica serving
// it.
func blackholedGateway(t *testing.T, successor *policyd.Snapshot) (*Gateway, func()) {
	nw := netsim.New()
	ln, err := nw.Listen("10.0.0.99", 81)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- netsim.Serve(ln, func(c net.Conn) {
			io.Copy(io.Discard, c)
			c.Close()
		})
	}()
	stopReplicas := func() {
		ln.Close()
		<-served
	}
	rcs := []ReplicaConfig{{Name: "blackhole", FrameAddr: "10.0.0.99:81"}}
	if successor != nil {
		stopSuccessor := serveReplica(t, nw, "10.0.0.96", policyd.NewService(successor))
		stopBlackhole := stopReplicas
		stopReplicas = func() {
			stopBlackhole()
			stopSuccessor()
		}
		rcs = append(rcs, ReplicaConfig{Name: "successor", FrameAddr: "10.0.0.96:81"})
	}
	gw, err := NewGateway(Config{
		Replicas: rcs,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nw.Dial(ctx, ClientIP, addr)
		},
	})
	if err != nil {
		stopReplicas()
		t.Fatal(err)
	}
	return gw, func() {
		gw.Close()
		stopReplicas()
	}
}

// TestHandlerHonoursRequestContextOnBlackholedReplica: the netsim client
// hands a handler the request's ctx as r.Context(), so a POST /v1/batch
// under a 200 ms ctx to a gateway whose only replica reads everything
// and never answers returns from the gateway's handler well within a
// second, and the request fails with the ctx's error.
func TestHandlerHonoursRequestContextOnBlackholedReplica(t *testing.T) {
	nw := netsim.New()
	frames, err := nw.Listen("10.0.0.97", 81)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- netsim.Serve(frames, func(c net.Conn) {
			io.Copy(io.Discard, c)
			c.Close()
		})
	}()
	gw, err := NewGateway(Config{
		Replicas: []ReplicaConfig{{Name: "blackhole", FrameAddr: "10.0.0.97:81"}},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nw.Dial(ctx, gatewayIP, addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	h := gw.Handler()
	returned := make(chan struct{}, 1)
	release, err := nw.Handle(gatewayIP, 80, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		frames.Close() // ends a handler still blocked on the replica
		<-served
		release()
	}()

	body, err := json.Marshal(policyd.BatchRequest{Queries: straddleBatch(8)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+gatewayIP+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := nw.HTTPClient(ClientIP).Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("the gateway's handler is still blocked on a blackholed replica 1 s into a 200 ms ctx")
	}
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("POST /v1/batch = %v, want the ctx's deadline error", err)
	}
}

// TestProbeHonoursStartContextOnBlackholedReplica: canceling the ctx
// given to Start ends a probe blocked on a replica that reads everything
// and never answers at once. The replica sees the prober's conn close
// well inside probeTimeout, not when the probe's deadline fires.
func TestProbeHonoursStartContextOnBlackholedReplica(t *testing.T) {
	nw := netsim.New()
	ln, err := nw.Listen("10.0.0.98", 81)
	if err != nil {
		t.Fatal(err)
	}
	probed := make(chan struct{}, 1)
	closed := make(chan time.Time, 1)
	served := make(chan error, 1)
	go func() {
		served <- netsim.Serve(ln, func(c net.Conn) {
			// The preamble and the first byte of a probe's frame.
			var head [len(policyd.FrameMagicV2) + 1]byte
			if _, err := io.ReadFull(c, head[:]); err == nil {
				select {
				case probed <- struct{}{}:
				default:
				}
			}
			io.Copy(io.Discard, c)
			select {
			case closed <- time.Now():
			default:
			}
			c.Close()
		})
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	gw, err := NewGateway(Config{
		Replicas: []ReplicaConfig{{Name: "blackhole", FrameAddr: "10.0.0.98:81"}},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nw.Dial(ctx, ClientIP, addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gw.Start(ctx)
	select {
	case <-probed:
	case <-time.After(time.Second):
		t.Fatal("the prober never sent the replica a probe")
	}
	canceled := time.Now()
	cancel()
	select {
	case at := <-closed:
		if d := at.Sub(canceled); d > 100*time.Millisecond {
			t.Errorf("prober's conn closed %v after its ctx was canceled, want within 100 ms (probeTimeout %v)", d, probeTimeout)
		}
	case <-time.After(time.Second):
		t.Fatal("prober's conn still open 1 s after its ctx was canceled")
	}
}
