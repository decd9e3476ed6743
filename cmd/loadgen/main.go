// Command loadgen drives mixed decision workloads against the policyd
// service and reports throughput and latency percentiles: the
// serving-layer numbers from outside the process, which the in-process
// benchmark of record (bench/) cannot give.
//
// Every call is one policyd.Answerer.Answer. By default it compiles a
// corpus snapshot and hammers the service in-process (the pure engine
// cost); with -target it speaks the JSON API (policyd.JSONClient) to a
// running cmd/policyd replica or gateway over TCP, and -wire binary
// switches to the length-prefixed frame protocol (policyd.FrameClientV2;
// point -target at the daemon's -frame-addr). Hosts are drawn from a
// zipf popularity distribution over the corpus domains, agents from a
// configurable mix, and queries are issued singly or in batches.
//
// -target takes a comma-separated endpoint list: workers round-robin
// across the endpoints and the decision mix is reported per endpoint,
// so one process can drive a gateway and a direct replica side by side
// (or every replica of a fleet) and expose any routing skew. Rate
// limiting is handled on both wires: the clients surface an HTTP 429
// and the binary rate-limit frame alike as a *policyd.RateLimitError,
// and the drive loop backs off for its delay and retries, with throttle
// counts reported at the end.
//
//	go run ./cmd/loadgen -scale 0.05 -n 500000
//	go run ./cmd/loadgen -target http://localhost:8473 -batch 64 -concurrency 4
//	go run ./cmd/loadgen -target localhost:9474,localhost:8474 -wire binary -batch 256
//
// Against a gateway, the end of a stored run (-store) also captures
// /v1/quotas as the quotas.json semantic segment, so cmd/rundiff
// surfaces per-tenant quota shifts across runs.
//
// Latency percentiles come from a fixed-size per-worker reservoir
// (unbiased sample of the sampled calls), so arbitrarily long runs hold
// a bounded latency footprint and the drive loop stays allocation-free.
//
// The -o snapshot uses the "repro-benchsnap/1" JSON schema, which the
// run store reads as a stored run's bench.json; -min-qps and
// -max-allocs turn the run into a CI gate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/policyd"
	"repro/internal/runstore"
	"repro/internal/stats"
)

// mCallLatency mirrors the reservoir: every latency fed to a reservoir
// is also observed here, so the obs histogram and the reservoir
// percentiles describe the same sample stream and can cross-check each
// other (see TestReservoirHistogramAgree).
var mCallLatency = obs.NewHistogram("loadgen_call_latency_ns",
	"Sampled per-call latency of the drive loop, ns.")

// result and snapshot are the "repro-benchsnap/1" JSON schema
// (runstore.BenchEntry reads the entries back).
type result struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type snapshot struct {
	Schema    string `json:"schema"`
	Generated string `json:"generated"`
	runstore.Attribution
	Benchmarks map[string]result `json:"benchmarks"`
}

var defaultAgents = "GPTBot,ClaudeBot,CCBot,Bytespider,Googlebot"

func main() {
	os.Exit(run(os.Stderr, os.Args[1:]))
}

// options are the flags that load reads.
type options struct {
	target, name, agents, wire, out, store string
	seed, maxAllocs                        int64
	scale, zipf, minQPS                    float64
	snap, batch, total, concurrency        int
}

// run parses args, drives the load, writes what the flags ask for and
// returns the exit code: 2 for a bad command line, 1 for a failure or a
// failed gate.
func run(stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.target, "target", "", "comma-separated endpoints of running policyd daemons, replicas or gateways (empty = in-process service)")
	fs.StringVar(&opt.name, "name", "", "benchmark entry and run name (default derived from the mode)")
	fs.Int64Var(&opt.seed, "seed", stats.DefaultSeed, "corpus seed (must match the target's)")
	fs.Float64Var(&opt.scale, "scale", 0.05, "corpus scale (must match the target's)")
	fs.IntVar(&opt.snap, "snap", len(corpus.Snapshots)-1, "corpus snapshot index (in-process mode)")
	fs.StringVar(&opt.agents, "agents", defaultAgents, "comma-separated agent mix")
	fs.StringVar(&opt.wire, "wire", "json", "remote wire protocol: json (the HTTP API) or binary (the frame protocol)")
	fs.IntVar(&opt.batch, "batch", 1, "queries per call (1 = single-decision API)")
	fs.IntVar(&opt.total, "n", 200_000, "total decisions to issue")
	fs.IntVar(&opt.concurrency, "concurrency", 1, "parallel workload drivers")
	fs.Float64Var(&opt.zipf, "zipf", 1.1, "zipf skew for host popularity (0 = uniform)")
	fs.StringVar(&opt.out, "o", "", "write a JSON snapshot (schema repro-benchsnap/1) here")
	fs.StringVar(&opt.store, "store", "", "persist the run to this run-store directory (see cmd/rundiff)")
	fs.Float64Var(&opt.minQPS, "min-qps", 0, "fail unless decisions/sec reaches this")
	fs.Int64Var(&opt.maxAllocs, "max-allocs", -1, "fail if in-process allocs/op exceed this (-1 = no gate)")
	metrics := fs.String("metrics", "", "write obs metrics (Prometheus text) to this file at end of run (- = stderr)")
	cpuprof := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprof := fs.String("memprofile", "", "write a heap profile to this file at end of run")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if opt.snap < 0 || opt.snap >= len(corpus.Snapshots) {
		fmt.Fprintf(stderr, "loadgen: -snap %d is not a corpus snapshot index (0-%d)\n", opt.snap, len(corpus.Snapshots)-1)
		return 2
	}

	stopCPU, err := obs.StartCPUProfile(*cpuprof)
	if err == nil {
		err = load(stderr, opt)
		stopCPU()
	}
	if err == nil {
		err = obs.WriteHeapProfile(*memprof)
	}
	if err == nil {
		err = obs.DumpMetrics(*metrics)
	}
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	return 0
}

// load drives the workload opt describes and reports on stderr.
func load(stderr io.Writer, opt options) error {
	batch, concurrency := max(opt.batch, 1), max(opt.concurrency, 1)
	if opt.wire != "json" && opt.wire != "binary" {
		return fmt.Errorf("unknown -wire %q (want json or binary)", opt.wire)
	}
	var targets []string
	for _, t := range strings.Split(opt.target, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, strings.TrimRight(t, "/"))
		}
	}
	if opt.wire == "binary" && len(targets) == 0 {
		return fmt.Errorf("-wire binary needs -target (the -frame-addr of a cmd/policyd replica or gateway)")
	}
	if concurrency < len(targets) {
		// Every endpoint gets at least one worker, or its mix would be
		// silently empty.
		concurrency = len(targets)
	}
	ctx := context.Background()

	c, err := corpus.New(ctx, corpus.Config{Seed: opt.seed, Scale: opt.scale})
	if err != nil {
		return err
	}
	hosts := make([]string, len(c.Sites()))
	for i, s := range c.Sites() {
		hosts[i] = s.Domain
	}
	agents := strings.Split(opt.agents, ",")
	for i := range agents {
		agents[i] = strings.TrimSpace(agents[i])
	}

	var svc *policyd.Service
	if len(targets) == 0 {
		snap, err := policyd.FromCorpus(ctx, c, opt.snap, 0)
		if err != nil {
			return err
		}
		svc = policyd.NewService(snap)
		fmt.Fprintf(stderr, "loadgen: in-process %s\n", snap)
	} else {
		fmt.Fprintf(stderr, "loadgen: driving %s with %d corpus hosts\n",
			strings.Join(targets, ", "), len(hosts))
	}

	pool := buildWorkload(opt.seed, hosts, agents, opt.zipf, min(opt.total, 1<<16))
	driver := &driver{
		svc: svc, targets: targets, wire: opt.wire,
		pool: pool, batch: batch,
	}
	latRand := stats.NewRand(opt.seed).Fork("loadgen-latency")
	// Warm the roster and off-roster paths (and every endpoint) so the timed run
	// measures steady state.
	for e := 0; e < max(1, len(targets)); e++ {
		warm := workerOut{res: newReservoir(latRand.Fork(fmt.Sprintf("warm-%d", e)))}
		if err := driver.drive(e, 0, min(len(pool), 4096), &warm); err != nil {
			return err
		}
	}

	// Timed run: each worker walks an offset slice of the cycle so the
	// union covers the pool, sampling every 16th call's latency into a
	// fixed-size reservoir. Workers round-robin across the endpoints.
	perWorker := opt.total / concurrency
	outs := make([]workerOut, concurrency)
	for w := range outs {
		outs[w].res = newReservoir(latRand.Fork(fmt.Sprintf("worker-%d", w)))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			o.err = driver.drive(w, w*perWorker, perWorker, o)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	var counts [3]int64
	var sampled, throttled, swaps int64
	var maxLat time.Duration
	perEndpoint := make([][3]int64, max(1, len(targets)))
	for w, o := range outs {
		if o.err != nil {
			return o.err
		}
		lats = append(lats, o.res.samples...)
		sampled += o.res.seen
		throttled += o.throttled
		swaps += o.swaps
		if o.res.max > maxLat {
			maxLat = o.res.max
		}
		e := w % len(perEndpoint)
		for i := range counts {
			counts[i] += o.counts[i]
			perEndpoint[e][i] += o.counts[i]
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	issued := perWorker * concurrency
	qps := float64(issued) / elapsed.Seconds()

	// The zero-allocation contract is measured in-process on the exact
	// call the hot path serves; remote runs measure the wire, not the
	// engine, so the gate does not apply there.
	allocsPerOp := int64(-1)
	if svc != nil {
		allocsPerOp = measureAllocs(svc, pool, batch)
	}

	decided := counts[0] + counts[1] + counts[2]
	fmt.Fprintf(stderr, "loadgen: %d decisions in %.2fs — %.0f decisions/sec (batch=%d, concurrency=%d)\n",
		issued, elapsed.Seconds(), qps, batch, concurrency)
	if len(lats) > 0 {
		fmt.Fprintf(stderr, "loadgen: per-call latency p50=%s p90=%s p99=%s max=%s (%d of %d sampled calls held)\n",
			pctile(lats, 0.50), pctile(lats, 0.90), pctile(lats, 0.99), maxLat, len(lats), sampled)
	}
	if decided > 0 {
		fmt.Fprintf(stderr, "loadgen: decision mix: allow %.1f%% deny %.1f%% block %.1f%%\n",
			100*float64(counts[0])/float64(decided),
			100*float64(counts[1])/float64(decided),
			100*float64(counts[2])/float64(decided))
	}
	if len(targets) > 1 {
		for e, m := range perEndpoint {
			if n := m[0] + m[1] + m[2]; n > 0 {
				fmt.Fprintf(stderr, "loadgen: %s: %d decisions — allow %.1f%% deny %.1f%% block %.1f%%\n",
					targets[e], n, 100*float64(m[0])/float64(n), 100*float64(m[1])/float64(n), 100*float64(m[2])/float64(n))
			}
		}
	}
	if throttled > 0 {
		fmt.Fprintf(stderr, "loadgen: rate limited %d times (backed off per Retry-After, then retried)\n", throttled)
	}
	if swaps > 0 {
		fmt.Fprintf(stderr, "loadgen: observed %d snapshot rollovers mid-run\n", swaps)
	}
	if allocsPerOp >= 0 {
		fmt.Fprintf(stderr, "loadgen: allocs/op on the cached hot path: %d\n", allocsPerOp)
	}

	benchName := opt.name
	if benchName == "" {
		benchName = "policyd_loadgen_inproc"
		if len(targets) > 0 {
			benchName = "policyd_loadgen_remote"
		}
	}
	var snapData []byte
	if opt.out != "" || opt.store != "" {
		snapData, err = buildSnapshot(benchName, issued, elapsed, qps, lats, counts,
			throttled, swaps, allocsPerOp, batch, concurrency)
		if err != nil {
			return err
		}
	}
	if opt.out != "" {
		if err := os.WriteFile(opt.out, snapData, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loadgen: wrote %s\n", opt.out)
	}
	if opt.store != "" {
		st, err := runstore.Open(opt.store)
		if err != nil {
			return err
		}
		runName := opt.name
		if runName == "" {
			runName = "loadgen-inproc"
			if len(targets) > 0 {
				runName = "loadgen-remote"
			}
		}
		specKey := fmt.Sprintf("loadgen|target=%s|scale=%g|snap=%d|agents=%s|wire=%s|batch=%d|n=%d|conc=%d|zipf=%g",
			strings.Join(targets, "+"), opt.scale, opt.snap, opt.agents, opt.wire, batch, opt.total, concurrency, opt.zipf)
		mix := runstore.DecisionMix{
			Issued: int64(issued),
			Allow:  counts[0], Deny: counts[1], Block: counts[2],
			Batch: batch, Wire: opt.wire,
		}
		// A gateway target exposes its per-tenant quota ledger; capture it
		// as the quotas.json semantic segment. Plain policyd replicas
		// don't serve /v1/quotas — that's "no segment", not an error.
		quotas := fetchQuotas(targets)
		id, err := st.SaveLoadgen(runstore.NewMeta(runstore.KindLoadgen, runName, opt.seed, specKey), mix, quotas, snapData)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loadgen: stored run %s in %s\n", id, opt.store)
	}
	if opt.minQPS > 0 && qps < opt.minQPS {
		return fmt.Errorf("throughput gate failed: %.0f decisions/sec < required %.0f", qps, opt.minQPS)
	}
	if opt.maxAllocs >= 0 && allocsPerOp > opt.maxAllocs {
		return fmt.Errorf("allocation gate failed: %d allocs/op > allowed %d", allocsPerOp, opt.maxAllocs)
	}
	return nil
}

// buildWorkload pregenerates a query cycle: hosts zipf-ranked by corpus
// order (top-tier sites first, mirroring real popularity), agents drawn
// from the mix, paths from a fixed representative set.
func buildWorkload(seed int64, hosts, agents []string, zipfS float64, n int) []policyd.Query {
	paths := []string{
		"/", "/about.html", "/admin/panel", "/images/art.png",
		"/gallery/2024/piece.jpg", "/blog/post?id=7", "/search?q=x",
	}
	rn := stats.NewRand(seed).Fork("loadgen")
	cum := make([]float64, len(hosts))
	sum := 0.0
	for i := range hosts {
		w := 1.0
		if zipfS > 0 {
			w = 1.0 / math.Pow(float64(i+1), zipfS)
		}
		sum += w
		cum[i] = sum
	}
	qs := make([]policyd.Query, n)
	for i := range qs {
		u := rn.Float64() * sum
		h := sort.SearchFloat64s(cum, u)
		if h >= len(hosts) {
			h = len(hosts) - 1
		}
		qs[i] = policyd.Query{
			Host:  hosts[h],
			Agent: agents[rn.Intn(len(agents))],
			Path:  paths[rn.Intn(len(paths))],
		}
	}
	return qs
}

// reservoirSize bounds the per-worker latency sample: enough for stable
// p99 reads, independent of -n.
const reservoirSize = 4096

// reservoir is a fixed-size uniform sample (Vitter's Algorithm R) of the
// latencies fed to it, plus the exact maximum. add performs no
// allocations after construction, which keeps the drive loop's report
// path off the garbage collector at -n 1000000+.
type reservoir struct {
	samples []time.Duration
	seen    int64
	max     time.Duration
	rn      *stats.Rand
}

func newReservoir(rn *stats.Rand) *reservoir {
	return &reservoir{samples: make([]time.Duration, 0, reservoirSize), rn: rn}
}

func (r *reservoir) add(d time.Duration) {
	mCallLatency.Observe(uint64(d))
	if d > r.max {
		r.max = d
	}
	r.seen++
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, d)
		return
	}
	if j := r.rn.Intn(int(r.seen)); j < len(r.samples) {
		r.samples[j] = d
	}
}

// workerOut accumulates one worker's share of the run: its latency
// reservoir, action counts, rate-limit backoffs, and the snapshot
// rollovers it observed on the wire.
type workerOut struct {
	res       *reservoir
	counts    [3]int64
	throttled int64
	swaps     int64
	err       error
}

// driver issues the workload through one policyd.Answerer per worker:
// the in-process service, a frame connection, or the JSON API. With
// multiple targets, worker w drives targets[w mod len(targets)].
type driver struct {
	svc     *policyd.Service
	targets []string
	wire    string
	pool    []policyd.Query
	batch   int
}

// endpoint picks worker w's target ("" in-process).
func (d *driver) endpoint(w int) string {
	if len(d.targets) == 0 {
		return ""
	}
	return d.targets[w%len(d.targets)]
}

// answerer opens worker w's Answerer; the caller closes a frame client.
func (d *driver) answerer(w int) (policyd.Answerer, error) {
	if d.svc != nil {
		return d.svc, nil
	}
	tgt := d.endpoint(w)
	if d.wire == "json" {
		return &policyd.JSONClient{Client: &http.Client{Timeout: 30 * time.Second}, URL: httpBase(tgt)}, nil
	}
	conn, err := net.Dial("tcp", frameAddr(tgt))
	if err != nil {
		return nil, err
	}
	fc, err := policyd.NewFrameClientV2(conn)
	if err != nil {
		return nil, err
	}
	return fc, nil
}

// drive issues n decisions starting at pool offset off as worker w,
// feeding every 16th call's latency into o.res and accumulating the
// action mix. Rate-limited calls sleep the server's advertised backoff
// and retry — a throttle shapes traffic, it never fails the run.
func (d *driver) drive(worker, off, n int, o *workerOut) error {
	const sampleEvery = 16
	a, err := d.answerer(worker)
	if err != nil {
		return fmt.Errorf("remote %s: %w", d.endpoint(worker), err)
	}
	if c, ok := a.(io.Closer); ok {
		defer c.Close()
	}
	ctx := context.Background()
	qs := make([]policyd.Query, 0, d.batch)
	out := make([]policyd.Decision, 0, d.batch)
	lastVersion := ""
	var limited *policyd.RateLimitError // errors.As's target, made once per worker
	for calls, done := 0, 0; done < n; calls++ {
		qs = qs[:0]
		for len(qs) < d.batch && done+len(qs) < n {
			qs = append(qs, d.pool[(off+done+len(qs))%len(d.pool)])
		}
		sample := calls%sampleEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		var version string
		for {
			out, version, err = a.Answer(ctx, qs, out[:0])
			if err == nil || !errors.As(err, &limited) {
				break
			}
			o.throttled++
			time.Sleep(limited.RetryAfter)
		}
		if err != nil {
			return fmt.Errorf("remote %s: %w", d.endpoint(worker), err)
		}
		if lastVersion != "" && version != lastVersion {
			o.swaps++
		}
		lastVersion = version
		if sample {
			o.res.add(time.Since(t0))
		}
		for _, dec := range out {
			o.counts[dec.Action]++
		}
		done += len(qs)
	}
	return nil
}

// frameAddr normalizes -target for the frame protocol: an http:// URL
// form is tolerated and reduced to its host:port.
func frameAddr(target string) string {
	addr := strings.TrimPrefix(target, "http://")
	return strings.TrimSuffix(addr, "/")
}

// httpBase normalizes -target for the JSON API: a bare host:port gets
// an http:// scheme.
func httpBase(target string) string {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		return target
	}
	return "http://" + target
}

// fetchQuotas asks each target for its gateway quota ledger, returning
// the first that answers. Plain replicas 404 here; only gateways carry
// the endpoint.
func fetchQuotas(targets []string) *runstore.QuotaAccounting {
	client := &http.Client{Timeout: 10 * time.Second}
	for _, tgt := range targets {
		resp, err := client.Get(httpBase(tgt) + "/v1/quotas")
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		var acc runstore.QuotaAccounting
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err == nil {
			return &acc
		}
	}
	return nil
}

// measureAllocs reports steady-state allocations per call on the warmed
// in-process path: one svc.Answer of a batch-sized slice of the pool.
func measureAllocs(svc *policyd.Service, pool []policyd.Query, batch int) int64 {
	ctx := context.Background()
	qs := pool[:min(batch, len(pool))]
	out := make([]policyd.Decision, 0, len(qs))
	return int64(testing.AllocsPerRun(500, func() {
		out, _, _ = svc.Answer(ctx, qs, out[:0])
	}))
}

func buildSnapshot(name string, issued int, elapsed time.Duration, qps float64,
	lats []time.Duration, counts [3]int64, throttled, swaps, allocs int64, batch, concurrency int) ([]byte, error) {
	res := result{
		Iterations: issued,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(issued),
		Metrics: map[string]float64{
			"decisions_per_sec": qps,
			"batch":             float64(batch),
			"concurrency":       float64(concurrency),
			"allow":             float64(counts[0]),
			"deny":              float64(counts[1]),
			"block":             float64(counts[2]),
		},
	}
	if throttled > 0 {
		res.Metrics["rate_limited"] = float64(throttled)
	}
	if swaps > 0 {
		res.Metrics["snapshot_rollovers"] = float64(swaps)
	}
	if allocs >= 0 {
		res.AllocsPerOp = allocs
	}
	if len(lats) > 0 {
		res.Metrics["p50_ns"] = float64(pctile(lats, 0.50).Nanoseconds())
		res.Metrics["p90_ns"] = float64(pctile(lats, 0.90).Nanoseconds())
		res.Metrics["p99_ns"] = float64(pctile(lats, 0.99).Nanoseconds())
	}
	snap := snapshot{
		Schema:      "repro-benchsnap/1",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Attribution: runstore.Stamp(),
		Benchmarks:  map[string]result{name: res},
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// pctile reads the q-quantile from sorted latencies.
func pctile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
