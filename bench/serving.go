package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/policyd"
)

// servingSpec is what distinguishes the three serving workloads.
type servingSpec struct {
	mix cycleSpec
	// json drives the gateway's JSON handler (GETs and small POST
	// batches) instead of RPB2 frames.
	json bool
	// direct sends frames to replica 0, bypassing the gateway.
	direct bool
	// reload recompiles and swaps the snapshot while reads run.
	reload bool
}

func servingSpecs(sz sizes) map[string]servingSpec {
	mixed := cycleSpec{n: sz.cycleLen, zipf: 1.1}
	return map[string]servingSpec{
		wlFleetFrameMixed:    {mix: mixed},
		wlReplicaFrameDirect: {mix: mixed, direct: true},
		wlFleetJSONReload: {
			mix:  cycleSpec{n: sz.cycleLen, nonRosterShare: 0.20, unknownHostShare: 0.05},
			json: true, reload: true,
		},
	}
}

// servingEnv is everything set-up builds for a serving run: the corpus,
// its last two months compiled, a fleet serving the last month, and the
// query cycle with its expected decisions.
type servingEnv struct {
	sz   sizes
	spec servingSpec
	c    *corpus.Corpus
	// hosts are the corpus's domains in corpus order, which the zipf mix
	// takes as popularity rank.
	hosts []string
	// snapA is the corpus's last month, compiled in full; snapB the
	// month before, compiled incrementally from snapA (only when the
	// run swaps snapshots).
	snapA, snapB *policyd.Snapshot
	fl           *fleet.SimFleet
	cyc          *cycle
	ops          []jsonOp // the cycle as JSON requests, when spec.json
	callers      []caller

	compileFull, compileIncr time.Duration
	precheck                 time.Duration // expected-decision tables

	// quiet is held by the reloader while it compiles and swaps, and by
	// the measuring loop while the speedometer samples: a sample waits out
	// a compile in flight, and no compile starts during a sample.
	quiet sync.Mutex
}

// setupServing builds the environment and warms each caller's path. Its
// wall time minus the pre-check is one set-up.
func setupServing(ctx context.Context, sz sizes, seed int64, spec servingSpec, withB bool) (*servingEnv, error) {
	e := &servingEnv{sz: sz, spec: spec}
	c, err := corpus.New(ctx, corpus.Config{Seed: seed, Scale: sz.corpusScale})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	e.c = c

	last := len(corpus.Snapshots) - 1
	t := time.Now()
	if e.snapA, err = policyd.FromCorpus(ctx, c, last, 0); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	e.compileFull = time.Since(t)
	snaps := []*policyd.Snapshot{e.snapA}
	if withB || spec.reload {
		t = time.Now()
		if e.snapB, err = policyd.FromCorpusIncremental(ctx, c, last-1, 0, e.snapA); err != nil {
			return nil, fmt.Errorf("incremental compile: %w", err)
		}
		e.compileIncr = time.Since(t)
		snaps = append(snaps, e.snapB)
	}

	e.hosts = make([]string, len(c.Sites()))
	for i, s := range c.Sites() {
		e.hosts[i] = s.Domain
	}
	queries := buildQueries(seed, e.hosts, spec.mix)
	t = time.Now()
	e.cyc = newCycle(queries, snaps...)
	e.precheck = time.Since(t)

	// Rate 0: the limiter admits everything but still keeps its ledger,
	// so throughput cannot change the refusal rate.
	if e.fl, err = fleet.NewSimFleet(e.snapA, 2, fleet.Config{}); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if spec.json {
		e.ops = buildJSONOps(e.fl.GatewayURL, queries)
	}
	for i := 0; i < sz.callers; i++ {
		cl, err := e.newCaller(ctx, i, sz.callers)
		if err != nil {
			e.close()
			return nil, err
		}
		e.callers = append(e.callers, cl)
		for done := 0; done < sz.warmQueries; {
			r := cl.call(nil)
			if r.failed {
				e.close()
				return nil, fmt.Errorf("warm-up call failed")
			}
			done += int(r.decisions)
		}
	}
	return e, nil
}

func (e *servingEnv) close() {
	for _, cl := range e.callers {
		cl.close()
	}
	e.fl.Close()
}

// newCaller opens caller i's one connection; callers start at evenly
// spaced offsets of the cycle so they never send the same batch at once.
func (e *servingEnv) newCaller(ctx context.Context, i, of int) (caller, error) {
	if e.spec.json {
		return &jsonCaller{client: e.fl.Client(), batchURL: e.fl.GatewayURL + "/v1/batch", cyc: e.cyc, ops: e.ops, next: i * len(e.ops) / of}, nil
	}
	addr := e.fl.GatewayFrameAddr
	if e.spec.direct {
		addr = e.fl.ReplicaFrameAddrs[0]
	}
	fc, err := e.fl.DialFrameV2(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	batches := len(e.cyc.queries) / e.sz.batch
	return &frameCaller{fc: fc, cyc: e.cyc, batch: e.sz.batch, next: i * batches / of}, nil
}

// callResult is one completed call: its latency from send to the last
// byte decoded, the decisions it carried, and whether it failed, was
// refused, or answered differently from Snapshot.Decide.
type callResult struct {
	lat       time.Duration
	decisions int32
	failed    bool
}

// caller is one closed-loop client on one connection.
type caller interface {
	call(tr *tracer) callResult
	close()
}

// frameCaller walks the cycle in RPB2 batches.
type frameCaller struct {
	fc    *policyd.FrameClientV2
	cyc   *cycle
	batch int
	next  int // next batch index
	req   int64
	out   []policyd.Decision
}

func (c *frameCaller) call(tr *tracer) callResult {
	off := c.next * c.batch
	if off+c.batch > len(c.cyc.queries) {
		c.next, off = 0, 0
	}
	c.next++
	c.req++
	qs := c.cyc.queries[off : off+c.batch]

	root := tr.begin("bench.call", -1, c.req)
	id := tr.begin("policyd.FrameClientV2.Decide", root, c.req)
	t := time.Now()
	ds, version, err := c.fc.Decide(qs, c.out[:0])
	lat := time.Since(t)
	tr.end(id)
	c.out = ds[:0]

	id = tr.begin("bench.verify", root, c.req)
	ok := err == nil && len(ds) == len(qs) && c.cyc.check(version, off, ds)
	tr.end(id)
	tr.end(root)
	return callResult{lat: lat, decisions: int32(len(qs)), failed: !ok}
}

func (c *frameCaller) close() { c.fc.Close() }

// jsonBatch is the size of the JSON workload's POST batches.
const jsonBatch = 8

// jsonOp is one pre-rendered JSON request: a GET of one query, or a
// POST of jsonBatch queries when body is set.
type jsonOp struct {
	off, n int
	url    string
	body   []byte
}

// buildJSONOps lays the cycle out as three single GETs then one POST
// batch, repeated: 75% GET and 25% POST by request count.
func buildJSONOps(base string, queries []policyd.Query) []jsonOp {
	var ops []jsonOp
	for off := 0; off+3+jsonBatch <= len(queries); {
		for k := 0; k < 3; k++ {
			ops = append(ops, jsonOp{off: off, n: 1, url: decideURL(base, queries[off])})
			off++
		}
		body, err := json.Marshal(policyd.BatchRequest{Queries: queries[off : off+jsonBatch]})
		if err != nil {
			panic(err) // strings only; cannot fail
		}
		ops = append(ops, jsonOp{off: off, n: jsonBatch, body: body})
		off += jsonBatch
	}
	return ops
}

// jsonCaller walks the cycle through the JSON API on its own client,
// which keeps one connection.
type jsonCaller struct {
	client   *http.Client
	batchURL string
	cyc      *cycle
	ops      []jsonOp
	next     int
	req      int64
	buf      bytes.Buffer
}

func (c *jsonCaller) call(tr *tracer) callResult {
	op := c.ops[c.next%len(c.ops)]
	c.next++
	c.req++

	root := tr.begin("bench.call", -1, c.req)
	name := "fleet.Gateway.Handler GET /v1/decide"
	if op.body != nil {
		name = "fleet.Gateway.Handler POST /v1/batch"
	}
	id := tr.begin(name, root, c.req)
	t := time.Now()
	var resp *http.Response
	var err error
	if op.body == nil {
		resp, err = c.client.Get(op.url)
	} else {
		resp, err = c.client.Post(c.batchURL, "application/json", bytes.NewReader(op.body))
	}
	var batch policyd.BatchResponse
	status, version := 0, ""
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status, version = resp.StatusCode, resp.Header.Get("X-Policyd-Version")
		if err == nil && op.body != nil && status == http.StatusOK {
			err = json.Unmarshal(c.buf.Bytes(), &batch)
		}
	}
	lat := time.Since(t)
	tr.end(id)

	id = tr.begin("bench.verify", root, c.req)
	ok := err == nil && status == http.StatusOK && c.verify(op, version, batch)
	tr.end(id)
	tr.end(root)
	return callResult{lat: lat, decisions: int32(op.n), failed: !ok}
}

// verify compares the response with the expected decisions of the
// version it names: byte for byte on a GET (the service pre-renders the
// body), field by field on a batch.
func (c *jsonCaller) verify(op jsonOp, version string, batch policyd.BatchResponse) bool {
	exp, ok := c.cyc.expected[version]
	if !ok {
		return false
	}
	if op.body == nil {
		want, ok := policyd.DecisionBody(exp[op.off])
		return ok && bytes.Equal(c.buf.Bytes(), want)
	}
	if len(batch.Decisions) != op.n {
		return false
	}
	for i, d := range batch.Decisions {
		if d != exp[op.off+i].JSON() {
			return false
		}
	}
	return true
}

func (c *jsonCaller) close() { c.client.CloseIdleConnections() }

// drive runs every caller closed-loop, each on its own goroutine, until
// dur has passed, and returns each caller's samples. trs, when not nil,
// holds one tracer per caller.
func drive(callers []caller, dur time.Duration, trs []*tracer) [][]sample {
	out := make([][]sample, len(callers))
	start := time.Now()
	var wg sync.WaitGroup
	for i, cl := range callers {
		var tr *tracer
		if trs != nil {
			tr = trs[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Room for 60k calls a second, so recording a sample never
			// copies the slice mid-run.
			s := make([]sample, 0, int(dur.Seconds()*60000)+1024)
			for {
				r := cl.call(tr)
				end := time.Since(start)
				s = append(s, sample{end: end, lat: r.lat, decisions: r.decisions, failed: r.failed})
				if end >= dur {
					break
				}
			}
			out[i] = s
		}()
	}
	wg.Wait()
	return out
}

// reloader recompiles the corpus's last two months alternately, each
// incrementally from the snapshot being served, and swaps every replica
// to the result, until stop is closed. It returns the swaps made and
// the first compile error.
func (e *servingEnv) reloader(ctx context.Context, every time.Duration, stop <-chan struct{}) (swaps int, err error) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	last := len(corpus.Snapshots) - 1
	idx := last - 1 // the fleet starts on the last month
	for {
		select {
		case <-stop:
			return swaps, err
		case <-tick.C:
		}
		e.quiet.Lock()
		next, cerr := policyd.FromCorpusIncremental(ctx, e.c, idx, 0, e.fl.Services[0].Current())
		if cerr == nil {
			e.fl.SwapAll(next)
			swaps++
			idx = 2*last - 1 - idx
		} else if err == nil {
			err = cerr
		}
		e.quiet.Unlock()
	}
}

// servingRun is what one measured interval of a serving workload saw.
type servingRun struct {
	round     roundStat
	attempted int64
	failed    int64
	swaps     int
	windows   []windowStat
}

// measureServing drives the environment's callers for dur, in slices
// with a speedometer sample before and after each, and reduces the
// samples to the median window. No call is in flight during a sample
// and the reloader is held off.
func (e *servingEnv) measureServing(ctx context.Context, dur time.Duration, trs []*tracer, sp *speedometer) (servingRun, error) {
	var run servingRun
	stop := make(chan struct{})
	var reloadErr error
	var wg sync.WaitGroup
	if e.spec.reload {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.swaps, reloadErr = e.reloader(ctx, e.sz.reloadEvery, stop)
		}()
	}
	width := e.sz.window
	if e.spec.reload {
		// A window spans one reload period, so that every window holds
		// one recompile: in narrower windows the recompile would sit in a
		// minority of them and the median window would never see it.
		width = e.sz.reloadEvery
	}
	quietSample := func() {
		e.quiet.Lock()
		sp.sample()
		e.quiet.Unlock()
	}
	// Set-up garbage is collected before the clock starts, not during
	// the first windows.
	runtime.GC()
	for left := dur; left > 0; left -= e.sz.slice {
		quietSample()
		d := min(left, e.sz.slice)
		var all []sample
		for _, samples := range drive(e.callers, d, trs) {
			all = append(all, samples...)
		}
		for _, s := range all {
			run.attempted++
			if s.failed {
				run.failed++
			}
		}
		run.windows = append(run.windows, windowStats(all, min(width, d), d)...)
	}
	quietSample()
	close(stop)
	wg.Wait()
	if reloadErr != nil {
		return run, fmt.Errorf("reload: %w", reloadErr)
	}
	run.round = medianWindow(run.windows)
	return run, nil
}

// runServing is one run of a serving workload: set-up several times (the
// median is setup_s), then one measured interval. With a tracer, every
// caller records its spans into one of its own and they are merged into
// tr afterwards.
func runServing(ctx context.Context, sz sizes, name string, seed int64, seconds float64, tr *tracer) (*result, error) {
	spec := servingSpecs(sz)[name]
	sp := newSpeedometer(sz)
	var env *servingEnv
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if env != nil {
			env.close()
		}
		sp.sample()
		t := time.Now()
		e, err := setupServing(ctx, sz, seed, spec, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (time.Since(t) - e.precheck).Seconds())
		env = e
	}
	defer env.close()

	var trs []*tracer
	if tr != nil {
		for range env.callers {
			trs = append(trs, newTracer(tr.epoch, 1<<18))
		}
	}
	run, err := env.measureServing(ctx, time.Duration(seconds*float64(time.Second)), trs, sp)
	if err != nil {
		return nil, err
	}
	tr.merge(trs...)
	if spec.reload && run.swaps < 3 && seconds >= 4*sz.reloadEvery.Seconds() {
		return nil, fmt.Errorf("only %d snapshot swaps in %.0fs", run.swaps, seconds)
	}
	r := &result{attempted: run.attempted, failed: run.failed, metrics: values{
		"work_per_s":  run.round.perS,
		"call_p50_us": run.round.p50us,
		"call_p90_us": run.round.p90us,
		"setup_s":     median(setups),
	}}
	r.notef("netsim, in-process (no host loopback); closed loop, %d callers, one connection each, GOMAXPROCS %d",
		sz.callers, runtime.GOMAXPROCS(0))
	r.notef("unit of work: decision; call: %s", callKind(spec, sz))
	r.notef("%d calls in %d windows; the median window holds %.0f calls, so p50/p90/p99 each rest on that many samples",
		run.attempted, run.round.windows, run.round.callsPerWindow)
	r.notef("%d hosts, cycle of %d queries, %d snapshot swaps, set-ups %v s", env.snapA.Len(), len(env.cyc.queries), run.swaps, setups)
	r.normalise(sp)
	r.diag("bench.call_p99_us", run.round.p99us, "us")
	r.diag("bench.disturbed_window_share", run.round.disturbedShare, "ratio")
	r.diag("bench.precheck_s", env.precheck.Seconds(), "s")
	return r, nil
}

func callKind(spec servingSpec, sz sizes) string {
	switch {
	case spec.json:
		return fmt.Sprintf("one GET /v1/decide (75%%) or one POST /v1/batch of %d (25%%) through the gateway", jsonBatch)
	case spec.direct:
		return fmt.Sprintf("one RPB2 batch of %d straight to replica 0", sz.batch)
	default:
		return fmt.Sprintf("one RPB2 batch of %d through the gateway", sz.batch)
	}
}
