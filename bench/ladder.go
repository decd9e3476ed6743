package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policyd"
	"repro/internal/webserver"
)

// ladder runs the per-layer rungs of the traced run. Every timed call
// is one span; failed calls count against the run like any other.
type ladder struct {
	tr                *tracer
	vals              values
	attempted, failed int64
}

const rungWarm = 500

// rung times calls calls of fn one by one, in microseconds.
func (l *ladder) rung(name string, calls int, fn func(i int) bool) dist {
	for i := 0; i < rungWarm && i < calls; i++ {
		fn(i)
	}
	us := make([]float64, calls)
	for i := 0; i < calls; i++ {
		id := l.tr.begin(name, -1, int64(i))
		t := time.Now()
		ok := fn(i)
		us[i] = float64(time.Since(t)) / 1e3
		l.tr.end(id)
		l.attempted++
		if !ok {
			l.failed++
		}
	}
	return newDist(us)
}

// rungBlock times operations too short for the clock: each sample is a
// block of per operations, reported in nanoseconds per operation.
func (l *ladder) rungBlock(name string, blocks, per int, fn func(i int)) dist {
	ns := make([]float64, blocks)
	for b := 0; b < blocks; b++ {
		id := l.tr.begin(name, -1, int64(b))
		t := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		ns[b] = float64(time.Since(t)) / float64(per)
		l.tr.end(id)
	}
	return newDist(ns)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// listener is a bench-owned server on a net.Listener: stop closes it
// and returns once the accept loop and every connection have ended.
type listener struct {
	ln net.Listener
	wg sync.WaitGroup
}

func serve(ln net.Listener, handle func(c net.Conn)) *listener {
	s := &listener{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				handle(c)
			}()
		}
	}()
	return s
}

// stop must be called after the clients have closed their connections.
func (s *listener) stop() {
	s.ln.Close()
	s.wg.Wait()
}

// echoHandler answers every reqSize bytes with resp: the bare pipe.
func echoHandler(reqSize int, resp []byte) func(net.Conn) {
	return func(c net.Conn) {
		buf := make([]byte, reqSize)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}
}

// nullHandler is the null target: it speaks RPB2 framing but answers
// every request frame with the same canned response, so a caller driven
// against it measures the generator alone.
func nullHandler(resp []byte) func(net.Conn) {
	return func(c net.Conn) {
		var hdr [4]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil { // preamble
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(hdr[:])
			if int(n) > len(buf) {
				return
			}
			if _, err := io.ReadFull(c, buf[:n]); err != nil {
				return
			}
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}
}

const (
	benchIP     = "10.0.0.99"
	nullVersion = "null"
)

// frameCalls returns a rung's call: batch i of the cycle over fc,
// checked against the expected decisions.
func frameCalls(fc *policyd.FrameClientV2, cyc *cycle, batch int) func(i int) bool {
	batches := len(cyc.queries) / batch
	out := make([]policyd.Decision, 0, batch)
	return func(i int) bool {
		off := (i % batches) * batch
		ds, version, err := fc.Decide(cyc.queries[off:off+batch], out[:0])
		return err == nil && cyc.check(version, off, ds)
	}
}

func decideURL(base string, q policyd.Query) string {
	return base + "/v1/decide?" + url.Values{"host": {q.Host}, "agent": {q.Agent}, "path": {q.Path}}.Encode()
}

// servingLadder answers the same mixed-host batches at every rung from
// the in-process service up to the gateway, with one caller, and fills
// in the serving per-layer metrics and the budget table.
func (l *ladder) servingLadder(ctx context.Context, sz sizes, seed int64) ([]ladderRow, error) {
	sz.callers = 1
	e, err := setupServing(ctx, sz, seed, servingSpecs(sz)[wlFleetFrameMixed], true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	v := l.vals
	calls := sz.ladderCalls
	nb := len(e.cyc.queries) / sz.batch
	batch := func(i int) (int, []policyd.Query) {
		off := (i % nb) * sz.batch
		return off, e.cyc.queries[off : off+sz.batch]
	}
	out := make([]policyd.Decision, 0, sz.batch)

	v["policyd.compile_full_ms"] = float64(e.compileFull) / 1e6
	v["policyd.compile_incr_ms"] = float64(e.compileIncr) / 1e6
	v["policyd.hosts_reused_share"] = float64(e.snapB.ReusedHosts()) / float64(e.snapB.Len())

	// In-process service.
	svc := e.fl.Services[0]
	m0 := mallocs()
	decide := l.rung("policyd.Service.DecideBatchVersioned", calls, func(i int) bool {
		off, qs := batch(i)
		ds, version := svc.DecideBatchVersioned(qs, out[:0])
		return e.cyc.check(version, off, ds)
	})
	v["policyd.allocs_per_batch"] = float64(mallocs()-m0) / float64(calls+rungWarm)
	v["policyd.decide_batch_us"] = decide.p50

	slow := buildQueries(seed, e.hosts, cycleSpec{n: 4096, nonRosterShare: 1})
	v["policyd.fastpath_decide_ns"] = l.rungBlock("policyd.Snapshot.Decide roster", calls/100, 1000, func(i int) {
		e.snapA.Decide(e.cyc.queries[i%len(e.cyc.queries)])
	}).p50
	v["policyd.slowpath_decide_ns"] = l.rungBlock("policyd.Snapshot.Decide non-roster", calls/100, 1000, func(i int) {
		e.snapA.Decide(slow[i%len(slow)])
	}).p50

	// Codec over a byte buffer: what one leg of the wire encodes and decodes.
	var qbuf, dbuf []byte
	var qsOut []policyd.Query
	_, qs0 := batch(0)
	ds0, _ := svc.DecideBatchVersioned(qs0, nil)
	codec := l.rung("policyd.codec", calls, func(i int) bool {
		_, qs := batch(i)
		var err error
		if qbuf, err = policyd.AppendQueryFrame(qbuf[:0], qs); err != nil {
			return false
		}
		if qsOut, err = policyd.DecodeQueryPayload(qbuf[4:], qsOut[:0]); err != nil {
			return false
		}
		dbuf = policyd.AppendDecisionFrameV2(dbuf[:0], ds0, e.snapA.Version)
		ds, _, err := policyd.DecodeResponsePayloadV2(dbuf[4:], out[:0])
		return err == nil && len(ds) == len(ds0) && len(qsOut) == len(qs)
	})
	v["policyd.codec_us"] = codec.p50

	// The bare netsim pipe, at the frame sizes of this batch.
	canned := policyd.AppendDecisionFrameV2(nil, make([]policyd.Decision, sz.batch), nullVersion)
	echoLn, err := e.fl.NW.Listen(benchIP, 7)
	if err != nil {
		return nil, err
	}
	echo := serve(echoLn, echoHandler(len(qbuf), canned))
	ec, err := e.fl.NW.Dial(ctx, fleet.ClientIP, benchIP+":7")
	if err != nil {
		return nil, err
	}
	rbuf := make([]byte, len(canned))
	conn := l.rung("netsim.Network.Dial echo", calls, func(int) bool {
		if _, err := ec.Write(qbuf); err != nil {
			return false
		}
		_, err := io.ReadFull(ec, rbuf)
		return err == nil
	})
	ec.Close()
	echo.stop()
	v["netsim.conn_rtt_us"] = conn.p50

	// Frames to one replica, then through the gateway.
	frameRung := func(name, addr string, cyc *cycle) (dist, error) {
		fc, err := e.fl.DialFrameV2(ctx, addr)
		if err != nil {
			return dist{}, err
		}
		defer fc.Close()
		return l.rung(name, calls, frameCalls(fc, cyc, sz.batch)), nil
	}
	frame, err := frameRung("policyd.FrameClientV2.Decide replica", e.fl.ReplicaFrameAddrs[0], e.cyc)
	if err != nil {
		return nil, err
	}
	v["policyd.frame_rtt_us"], v["policyd.frame_rtt_p90_us"] = frame.p50, frame.p90

	// Batches whose hosts all live on replica 0: the gateway answers
	// them with one replica visit and no scatter.
	ring := fleet.NewRing([]string{"policyd-0", "policyd-1"}, 0)
	var onZero []policyd.Query
	for _, q := range e.cyc.queries {
		if ring.Pick(q.Host) == 0 {
			onZero = append(onZero, q)
		}
	}
	if len(onZero) < sz.batch {
		return nil, fmt.Errorf("only %d queries route to replica 0", len(onZero))
	}
	singleCyc := newCycle(onZero, e.snapA)
	before := e.fl.GW.Stats()
	single, err := frameRung("policyd.FrameClientV2.Decide gateway single-replica", e.fl.GatewayFrameAddr, singleCyc)
	if err != nil {
		return nil, err
	}
	if after := e.fl.GW.Stats(); after.Replicas[1].Routed != before.Replicas[1].Routed {
		return nil, fmt.Errorf("single-replica batches reached replica 1: the bench's ring disagrees with the gateway's")
	}
	v["fleet.gateway_rtt_single_us"] = single.p50

	before = e.fl.GW.Stats()
	m0 = mallocs()
	mixed, err := frameRung("policyd.FrameClientV2.Decide gateway mixed", e.fl.GatewayFrameAddr, e.cyc)
	if err != nil {
		return nil, err
	}
	v["fleet.allocs_per_call"] = float64(mallocs()-m0) / float64(calls+rungWarm)
	after := e.fl.GW.Stats()
	r0 := float64(after.Replicas[0].Routed - before.Replicas[0].Routed)
	r1 := float64(after.Replicas[1].Routed - before.Replicas[1].Routed)
	v["fleet.route_skew"] = max(r0, r1) / ((r0 + r1) / 2)
	v["fleet.gateway_rtt_mixed_us"], v["fleet.gateway_rtt_mixed_p90_us"] = mixed.p50, mixed.p90

	rows := budget(decide, codec, conn, frame, single, mixed)
	v["policyd.frame_self_us"] = rows[3].SelfUs
	v["fleet.gateway_self_us"] = rows[4].SelfUs
	v["fleet.scatter_self_us"] = rows[5].SelfUs

	// The gateway's own steps on this batch.
	lim := fleet.NewLimiter(0, 0, nil)
	groups := make([]fleet.TenantCount, len(rosterAgents))
	for i, a := range rosterAgents {
		groups[i] = fleet.TenantCount{Tenant: a, N: sz.batch / len(rosterAgents)}
	}
	v["fleet.admit_ns"] = l.rungBlock("fleet.Limiter.Admit", calls/100, 1000, func(int) { lim.Admit(groups) }).p50
	v["fleet.ring_pick_ns"] = l.rungBlock("fleet.Ring.Pick", calls/100, 1000, func(i int) {
		ring.Pick(e.cyc.queries[i%len(e.cyc.queries)].Host)
	}).p50

	// One JSON GET at a replica's handler, then through the gateway's.
	jsonRung := func(name, base string) dist {
		client := e.fl.Client()
		defer client.CloseIdleConnections()
		urls := make([]string, min(4096, len(e.cyc.queries)))
		for i := range urls {
			urls[i] = decideURL(base, e.cyc.queries[i])
		}
		exp := e.cyc.expected[e.snapA.Version]
		return l.rung(name, calls, func(i int) bool {
			k := i % len(urls)
			resp, err := client.Get(urls[k])
			if err != nil {
				return false
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			want, _ := policyd.DecisionBody(exp[k])
			return err == nil && resp.StatusCode == http.StatusOK && string(body) == string(want)
		})
	}
	replicaJSON := jsonRung("policyd.NewHandler GET /v1/decide", e.fl.ReplicaURLs[0])
	gatewayJSON := jsonRung("fleet.Gateway.Handler GET /v1/decide", e.fl.GatewayURL)
	v["policyd.json_decide_us"] = replicaJSON.p50
	v["fleet.json_decide_us"] = gatewayJSON.p50
	v["fleet.json_self_us"] = gatewayJSON.p50 - replicaJSON.p50

	if err := l.swapRung(e); err != nil {
		return nil, err
	}
	l.tcpRungs(ctx, e, calls/4)
	if err := l.httpRung(calls); err != nil {
		return nil, err
	}
	if err := l.generatorRungs(ctx, e, canned, calls); err != nil {
		return nil, err
	}
	if err := l.overheadRun(ctx, e); err != nil {
		return nil, err
	}
	return rows, nil
}

// swapRung swaps every replica between the two snapshots while one
// caller keeps mixed batches flowing, and times how long the gateway
// takes to announce each new fleet version.
func (l *ladder) swapRung(e *servingEnv) error {
	repinned := obs.NewCounter("fleet_batch_repinned_total", "")
	rep0, batches0 := repinned.Value(), e.fl.GW.Stats().Batches

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var attempted, failed int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := e.callers[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			attempted++
			if cl.call(nil).failed {
				failed++
			}
		}
	}()
	var visible []float64
	var err error
	for k := 0; k < 6 && err == nil; k++ {
		target := e.snapB
		if k%2 == 1 {
			target = e.snapA
		}
		id := l.tr.begin("fleet.SimFleet.SwapAll to Gateway.FleetVersion", -1, int64(k))
		t := time.Now()
		e.fl.SwapAll(target)
		for e.fl.GW.FleetVersion() != target.Version {
			if time.Since(t) > 2*time.Second {
				err = fmt.Errorf("gateway never announced version %s", target.Version)
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		visible = append(visible, float64(time.Since(t))/1e6)
		l.tr.end(id)
		time.Sleep(30 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	l.attempted += attempted
	l.failed += failed
	if err != nil {
		return err
	}
	l.vals["fleet.swap_visible_ms"] = median(visible)
	l.vals["fleet.repinned_share"] = float64(repinned.Value()-rep0) / float64(e.fl.GW.Stats().Batches-batches0)
	return nil
}

// tcpRungs repeats the replica and gateway rungs over 127.0.0.1. They
// are informational (the workloads run on netsim); where the sandbox
// has no loopback they read 0.
func (l *ladder) tcpRungs(ctx context.Context, e *servingEnv, calls int) {
	l.vals["policyd.frame_rtt_tcp_us"], l.vals["fleet.gateway_rtt_tcp_us"] = 0, 0
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	listen := func() (net.Listener, bool) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: no TCP loopback, TCP rungs read 0: %v\n", err)
			return nil, false
		}
		lns = append(lns, ln)
		return ln, true
	}
	var rcs []fleet.ReplicaConfig
	for i := 0; i < 2; i++ {
		ln, ok := listen()
		if !ok {
			return
		}
		go policyd.ServeFrames(ln, policyd.NewService(e.snapA))
		rcs = append(rcs, fleet.ReplicaConfig{Name: fmt.Sprintf("tcp-%d", i), FrameAddr: ln.Addr().String()})
	}
	var d net.Dialer
	gw, err := fleet.NewGateway(fleet.Config{Replicas: rcs, Dial: func(ctx context.Context, addr string) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	}})
	if err != nil {
		return
	}
	defer gw.Close()
	gwLn, ok := listen()
	if !ok {
		return
	}
	go gw.ServeFrames(gwLn)

	for _, r := range []struct{ metric, span, addr string }{
		{"policyd.frame_rtt_tcp_us", "policyd.FrameClientV2.Decide replica tcp", rcs[0].FrameAddr},
		{"fleet.gateway_rtt_tcp_us", "policyd.FrameClientV2.Decide gateway tcp", gwLn.Addr().String()},
	} {
		c, err := d.DialContext(ctx, "tcp", r.addr)
		if err != nil {
			return
		}
		fc, err := policyd.NewFrameClientV2(c)
		if err != nil {
			return
		}
		l.vals[r.metric] = l.rung(r.span, calls, frameCalls(fc, e.cyc, e.sz.batch)).p50
		fc.Close()
	}
}

// httpRung is one GET of /robots.txt from a farm-hosted site over
// netsim's HTTP client: the request every crawl of the simulation makes.
func (l *ladder) httpRung(calls int) error {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, "203.0.113.240")
	if err != nil {
		return err
	}
	defer farm.Close()
	site, err := farm.StartSite(webserver.WildcardDisallowSite("bench.test", "203.0.113.210"))
	if err != nil {
		return err
	}
	client := nw.HTTPClient("198.51.100.210")
	defer client.CloseIdleConnections()
	target := site.URL() + "/robots.txt"
	get := func(int) bool {
		resp, err := client.Get(target)
		if err != nil {
			return false
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err == nil && resp.StatusCode == http.StatusOK
	}
	l.vals["netsim.http_get_us"] = l.rung("netsim.HTTPClient GET /robots.txt", calls, get).p50
	m0 := mallocs()
	for i := 0; i < 2000; i++ {
		get(i)
	}
	l.vals["netsim.http_allocs_per_get"] = float64(mallocs()-m0) / 2000
	return nil
}

// pacedRate is the fixed schedule of the open-loop diagnostic.
const pacedRate = 20_000

// generatorRungs measure the generator itself against the null target:
// its closed-loop cost per call, and what a fixed 20k calls/s schedule
// reads when there is no system behind it.
func (l *ladder) generatorRungs(ctx context.Context, e *servingEnv, canned []byte, calls int) error {
	ln, err := e.fl.NW.Listen(benchIP, 81)
	if err != nil {
		return err
	}
	null := serve(ln, nullHandler(canned))
	defer null.stop()
	fc, err := e.fl.DialFrameV2(ctx, benchIP+":81")
	if err != nil {
		return err
	}
	defer fc.Close()

	nb := len(e.cyc.queries) / e.sz.batch
	out := make([]policyd.Decision, 0, e.sz.batch)
	call := func(i int) bool {
		off := (i % nb) * e.sz.batch
		ds, version, err := fc.Decide(e.cyc.queries[off:off+e.sz.batch], out[:0])
		return err == nil && version == nullVersion && len(ds) == e.sz.batch
	}
	l.vals["bench.gen_self_us"] = l.rung("bench null target", calls, call).p50

	// Open loop: call k is due at k/rate whatever happened before it,
	// and its latency counts from then. The wait is a spin because the
	// 50us interval is far below what a sleep can keep.
	interval := time.Second / pacedRate
	late := make([]float64, calls)
	lat := make([]float64, calls)
	start := time.Now()
	for k := 0; k < calls; k++ {
		due := time.Duration(k) * interval
		for time.Since(start) < due {
		}
		sent := time.Since(start)
		ok := call(k)
		done := time.Since(start)
		late[k] = float64(sent-due) / 1e3
		lat[k] = float64(done-due) / 1e3
		l.attempted++
		if !ok {
			l.failed++
		}
	}
	q := supportedQuantile(calls, 0.99)
	l.vals["bench.paced_null_p99_us"] = quantile(sortedCopy(lat), q)
	l.vals["bench.gen_late_p99_us"] = quantile(sortedCopy(late), q)
	return nil
}

// overheadRun measures fleet-frame-mixed (the ladder's environment with
// a caller for every core) in short alternating slices with tracing off
// and on; the throughput lost with it on is the tracing overhead. The
// untraced slices also give the tail and the share of disturbed windows.
func (l *ladder) overheadRun(ctx context.Context, e *servingEnv) error {
	n := runtime.GOMAXPROCS(0)
	for i := len(e.callers); i < n; i++ {
		cl, err := e.newCaller(ctx, i, n)
		if err != nil {
			return err
		}
		e.callers = append(e.callers, cl)
	}
	slice := 4 * e.sz.window
	var off, on []float64
	var untraced []windowStat
	for i := 0; i < 4; i++ {
		var trs []*tracer
		if i%2 == 1 {
			for range e.callers {
				trs = append(trs, newTracer(l.tr.epoch, 1<<18))
			}
		}
		run, err := e.measureServing(ctx, slice, trs, nil)
		if err != nil {
			return err
		}
		l.attempted += run.attempted
		l.failed += run.failed
		if trs == nil {
			off = append(off, run.round.perS)
			untraced = append(untraced, run.windows...)
		} else {
			on = append(on, run.round.perS)
			l.tr.merge(trs...)
		}
	}
	l.vals["bench.trace_overhead_share"] = 1 - median(on)/median(off)
	pooled := medianWindow(untraced)
	l.vals["bench.call_p99_us"] = pooled.p99us
	l.vals["bench.disturbed_window_share"] = pooled.disturbedShare
	return nil
}
