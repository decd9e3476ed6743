package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/policyd"
)

// Gateway-wide metric families. Per-replica families register at
// gateway construction (registration is idempotent, keyed by the full
// labeled name).
var (
	mRateLimitDrops = obs.NewCounter("fleet_ratelimit_drops_total",
		"Decisions rejected at the gateway by per-tenant token buckets.")
	mVersionSkew = obs.NewGauge("fleet_version_skew",
		"Distinct snapshot versions live across replicas minus one; nonzero while a rollover is in flight.")
	mSwapNotify = obs.NewCounter("fleet_swap_notifications_total",
		"Fleet-wide rollovers: times every replica came to report one new snapshot version.")
	mGWWireJSON = obs.NewCounter(`fleet_gateway_requests_total{wire="json"}`,
		"Gateway-level decision requests, by protocol.")
	mGWWireFrame = obs.NewCounter(`fleet_gateway_requests_total{wire="frame"}`,
		"Gateway-level decision requests, by protocol.")
	mGWJSONStages = policyd.NewJSONStages("gateway")

	mReplicaErrDial    = obs.NewCounter(`fleet_replica_errors_total{class="dial"}`, replicaErrorsHelp)
	mReplicaErrTimeout = obs.NewCounter(`fleet_replica_errors_total{class="timeout"}`, replicaErrorsHelp)
	mReplicaErrGarbled = obs.NewCounter(`fleet_replica_errors_total{class="garbled"}`, replicaErrorsHelp)
	mReplicaErrEOF     = obs.NewCounter(`fleet_replica_errors_total{class="eof"}`, replicaErrorsHelp)
)

const replicaErrorsHelp = "Failed batch exchanges with a replica, by class: dial, timeout, garbled or eof."

// ReplicaConfig locates one policyd replica on whatever transport the
// gateway's Dial reaches.
type ReplicaConfig struct {
	// Name identifies the replica on the hash ring and in metrics; it
	// must be unique and stable (a membership change moves only the
	// changed name's keys).
	Name string
	// FrameAddr is the replica's binary-frame listener ("10.0.0.11:81"):
	// routed batches and version probes both travel there.
	FrameAddr string
}

// Config assembles a Gateway.
type Config struct {
	Replicas []ReplicaConfig
	// Rate/Burst configure per-tenant token buckets (tokens/sec and
	// bucket depth). Rate 0 disables limiting; Burst 0 defaults to
	// max(Rate, 2×policyd.MaxBatch) so a full batch always fits.
	Rate, Burst float64
	// Now is the limiter clock; nil means time.Now.
	Now func() time.Time
	// Dial reaches replica FrameAddr values.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// Gateway routes decision traffic across policyd replicas: per-tenant
// rate limiting at admission, each admitted batch sent whole to the
// replica its first host hashes to on the consistent-hash ring (one
// replica, one snapshot: a batch cannot straddle versions), and a fleet
// version that moves only when every replica has rolled to a new
// snapshot.
type Gateway struct {
	cfg      Config
	ring     *Ring
	replicas []*replica
	limiter  *Limiter

	vmu          sync.Mutex // guards fleetVersion
	fleetVersion string

	batches atomic.Uint64
	states  sync.Pool
}

// replica is one fleet member's runtime state.
type replica struct {
	cfg      ReplicaConfig
	gw       *Gateway
	pool     chan pooledConn
	version  sync.Mutex // guards ver
	ver      string
	mRoute   *obs.Counter
	mLatency *obs.Histogram
}

// NewGateway validates cfg and builds the gateway. Call Start to begin
// probing replica versions, then serve with Handler and ServeFrames.
func NewGateway(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("fleet: Config.Dial is required")
	}
	names := make([]string, len(cfg.Replicas))
	seen := make(map[string]bool, len(cfg.Replicas))
	for i, rc := range cfg.Replicas {
		if rc.Name == "" || seen[rc.Name] {
			return nil, fmt.Errorf("fleet: replica %d needs a unique name (got %q)", i, rc.Name)
		}
		seen[rc.Name] = true
		names[i] = rc.Name
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if m := float64(2 * policyd.MaxBatch); cfg.Burst < m {
			cfg.Burst = m
		}
	}
	g := &Gateway{
		cfg:     cfg,
		ring:    NewRing(names, 0),
		limiter: NewLimiter(cfg.Rate, cfg.Burst, cfg.Now),
	}
	for _, rc := range cfg.Replicas {
		g.replicas = append(g.replicas, &replica{
			cfg:  rc,
			gw:   g,
			pool: make(chan pooledConn, 16),
			mRoute: obs.NewCounter(fmt.Sprintf(`fleet_route_total{replica=%q}`, rc.Name),
				"Decisions routed to each replica."),
			mLatency: obs.NewHistogram(fmt.Sprintf(`fleet_replica_latency_ns{replica=%q}`, rc.Name),
				"Round-trip latency of one routed batch per replica, ns."),
		})
	}
	return g, nil
}

// probeInterval is how often each replica is asked for its snapshot
// version. Routed batches report the version that answered them, so
// under traffic a swap shows in the fleet view within one batch; only
// an idle replica waits for its next probe, one interval at most.
const probeInterval = 20 * time.Millisecond

// probeTimeout bounds each probe exchange and each redial.
const probeTimeout = 10 * probeInterval

// Start launches one prober per replica; they run until ctx is done.
// Without Start the gateway still works, but it learns a replica's
// version only from the batches routed there.
func (g *Gateway) Start(ctx context.Context) {
	for _, r := range g.replicas {
		go r.probeLoop(ctx)
	}
}

// FleetVersion returns the last version the whole fleet agreed on, ""
// before the first agreement is observed.
func (g *Gateway) FleetVersion() string {
	g.vmu.Lock()
	defer g.vmu.Unlock()
	return g.fleetVersion
}

// Limiter exposes the gateway's quota ledger.
func (g *Gateway) Limiter() *Limiter { return g.limiter }

// Close drains and closes all pooled replica connections.
func (g *Gateway) Close() {
	for _, r := range g.replicas {
		r.drain()
	}
}

// probeLoop asks the replica for its version every probeInterval: an
// empty RPB2 batch, which a replica answers with zero decisions and its
// snapshot version. It speaks to the replica on a frame conn of its
// own, not through routeBatch, because routeBatch answers an empty
// batch at the gateway without visiting a replica; and not through
// decideOn, so probes never count as client batches, routed decisions,
// replica latency or replica errors. Each probe, its redial included, runs under
// probeTimeout and ends when ctx does. A failed probe closes the conn
// and the next tick redials.
func (r *replica) probeLoop(ctx context.Context) {
	var fc *policyd.FrameClientV2
	defer func() {
		if fc != nil {
			fc.Close()
		}
	}()
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		if fc == nil {
			fc = r.dialProbe(pctx)
		}
		if fc != nil {
			if _, v, err := fc.Answer(pctx, nil, nil); err != nil {
				fc.Close()
				fc = nil
			} else {
				r.noteVersion(v)
			}
		}
		cancel()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// dialProbe opens the prober's frame conn under ctx; nil on failure.
func (r *replica) dialProbe(ctx context.Context) *policyd.FrameClientV2 {
	c, err := r.gw.cfg.Dial(ctx, r.cfg.FrameAddr)
	if err != nil {
		return nil
	}
	fc, err := policyd.NewFrameClientV2(c) // closes c on failure
	if err != nil {
		return nil
	}
	return fc
}

// noteVersion records a replica's observed snapshot version (from a
// probe or a routed answer) and recomputes the fleet view.
func (r *replica) noteVersion(v string) {
	if v == "" {
		return
	}
	r.version.Lock()
	changed := r.ver != v
	r.ver = v
	r.version.Unlock()
	if changed {
		r.gw.recomputeVersions()
	}
}

func (r *replica) currentVersion() string {
	r.version.Lock()
	defer r.version.Unlock()
	return r.ver
}

// distinctVersions returns the distinct snapshot versions the replicas
// last reported, and how many replicas have reported none yet.
func (g *Gateway) distinctVersions() (distinct []string, unknown int) {
	for _, r := range g.replicas {
		switch v := r.currentVersion(); {
		case v == "":
			unknown++
		case !slices.Contains(distinct, v):
			distinct = append(distinct, v)
		}
	}
	return distinct, unknown
}

// recomputeVersions refreshes the skew gauge and moves the fleet
// version when all replicas agree on a new one.
func (g *Gateway) recomputeVersions() {
	g.vmu.Lock()
	defer g.vmu.Unlock()
	distinct, unknown := g.distinctVersions()
	mVersionSkew.Set(float64(max(len(distinct)-1, 0)))
	if len(distinct) == 1 && unknown == 0 && distinct[0] != g.fleetVersion {
		g.fleetVersion = distinct[0]
		mSwapNotify.Inc()
	}
}

// pooledConn is an idle conn in a replica's pool and when it was put.
type pooledConn struct {
	fc *policyd.FrameClientV2
	at time.Time
}

// maxPooledIdle is how long a conn may sit in a pool: a margin under
// policyd.FrameReadTimeout, after which its replica closes it, for the
// replica arming that deadline before put and the next batch's trip.
const maxPooledIdle = policyd.FrameReadTimeout - 10*time.Second

// get returns a frame connection to the replica: a pooled one when
// pooled is set and one is idle, else a fresh dial. A pooled conn idle
// for longer than maxPooledIdle is closed on the way, unused.
func (r *replica) get(ctx context.Context, pooled bool) (*policyd.FrameClientV2, error) {
	for pooled {
		select {
		case pc := <-r.pool:
			if time.Since(pc.at) <= maxPooledIdle {
				return pc.fc, nil
			}
			pc.fc.Close()
		default:
			pooled = false
		}
	}
	c, err := r.gw.cfg.Dial(ctx, r.cfg.FrameAddr)
	if err != nil {
		return nil, err
	}
	return policyd.NewFrameClientV2(c)
}

// put pools fc with the time, or closes it when the pool is full.
func (r *replica) put(fc *policyd.FrameClientV2) {
	select {
	case r.pool <- pooledConn{fc, time.Now()}:
	default:
		fc.Close()
	}
}

// drain closes every conn pooled to the replica.
func (r *replica) drain() {
	for {
		select {
		case pc := <-r.pool:
			pc.fc.Close()
		default:
			return
		}
	}
}

// decideOn answers qs, appending to out, within ctx: its deadline bounds
// the exchange and canceling it ends the exchange. The batch goes to the
// replica owning key on the ring. A transport error while ctx is live
// retries once on a freshly dialed conn: to key's ring successor, or to
// the same replica when the ring has no other. The retry never takes a
// pooled conn, because a failure may mean that every pooled conn in the
// fleet is one its replica has since closed, as a restart leaves them.
func (g *Gateway) decideOn(ctx context.Context, key string, qs []policyd.Query, out []policyd.Decision) ([]policyd.Decision, string, error) {
	r := g.replicas[g.ring.Pick(key)]
	ds, version, err := r.answer(ctx, qs, out, true)
	if err == nil || spent(ctx, err) {
		return ds, version, err
	}
	if s := g.ring.successor(key); s >= 0 {
		r = g.replicas[s]
	}
	return r.answer(ctx, qs, out, false)
}

// answer sends qs to the replica on a pooled conn when pooled is set
// and one is idle, else on a fresh dial, and appends the answer to out;
// the replica's observed version updates from it. A failure is counted
// by class and closes the conn and, unless ctx ended it, every conn
// pooled to the replica: the one failure is most often a restart, which
// killed them all.
func (r *replica) answer(ctx context.Context, qs []policyd.Query, out []policyd.Decision, pooled bool) ([]policyd.Decision, string, error) {
	fc, err := r.get(ctx, pooled)
	if err != nil {
		return out, "", r.failed(ctx, err, true)
	}
	start := time.Now()
	ds, version, err := fc.Answer(ctx, qs, out)
	if err != nil {
		fc.Close()
		return out, "", r.failed(ctx, err, false)
	}
	r.mLatency.Observe(uint64(time.Since(start)))
	r.put(fc)
	r.mRoute.Add(uint64(len(qs)))
	r.noteVersion(version)
	return ds, version, nil
}

// failed counts err, a failure to reach the replica (dialing) or to
// exchange a batch with it, drains the replica's pool unless ctx ended
// the attempt, and returns err named by the replica. The classes: timeout
// (a deadline fired), dial (no conn could be opened), eof (the replica
// closed or reset the conn) and garbled (anything else, such as a
// malformed frame). A canceled ctx is the caller's doing, not the
// replica's, and is not counted.
func (r *replica) failed(ctx context.Context, err error, dialing bool) error {
	switch {
	case errors.Is(err, context.Canceled):
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		mReplicaErrTimeout.Inc()
	case dialing:
		mReplicaErrDial.Inc()
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed), errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE):
		mReplicaErrEOF.Inc()
	default:
		mReplicaErrGarbled.Inc()
	}
	if !spent(ctx, err) {
		r.drain()
	}
	return fmt.Errorf("fleet: replica %s: %w", r.cfg.Name, err)
}

// spent reports whether ctx ended the attempt that failed with err, so
// that another attempt would fail the same way. It reads err as well as
// ctx, because the conn's deadline timer may fire before ctx's own.
func spent(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// connState is pooled admission scratch, so the frame hot path stays
// allocation-steady.
type connState struct {
	groups []TenantCount
}

// admit groups the batch by tenant (query agent) and charges the
// limiter all-or-nothing. Small batches have few distinct agents, so
// grouping is a linear scan over a reused slice.
func (g *Gateway) admit(qs []policyd.Query) (time.Duration, bool) {
	st, _ := g.states.Get().(*connState)
	if st == nil {
		st = &connState{}
	}
	defer g.states.Put(st)
	st.groups = st.groups[:0]
outer:
	for i := range qs {
		for j := range st.groups {
			if st.groups[j].Tenant == qs[i].Agent {
				st.groups[j].N++
				continue outer
			}
		}
		st.groups = append(st.groups, TenantCount{Tenant: qs[i].Agent, N: 1})
	}
	wait, ok := g.limiter.Admit(st.groups)
	if !ok {
		mRateLimitDrops.Add(uint64(len(qs)))
	}
	return wait, ok
}

// routeBatch answers qs on the replica its first host hashes to,
// appending to out in query order. Every replica compiles the full
// snapshot, so any of them can answer any host; sending the batch whole
// means one DecideBatchVersioned answers it, from one snapshot.
func (g *Gateway) routeBatch(ctx context.Context, qs []policyd.Query, out []policyd.Decision) ([]policyd.Decision, string, error) {
	g.batches.Add(1)
	if len(qs) == 0 {
		return out, g.FleetVersion(), nil
	}
	return g.decideOn(ctx, qs[0].Host, qs, out)
}

// Answer implements policyd.Answerer for the fleet: admit the batch
// against the per-tenant quotas (a rejection is a
// *policyd.RateLimitError), then route it.
func (g *Gateway) Answer(ctx context.Context, qs []policyd.Query, out []policyd.Decision) ([]policyd.Decision, string, error) {
	if wait, ok := g.admit(qs); !ok {
		return out, "", &policyd.RateLimitError{RetryAfter: wait}
	}
	return g.routeBatch(ctx, qs, out)
}

// ReplicaStatus is one replica's row in gateway stats.
type ReplicaStatus struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	Routed  uint64 `json:"routed"`
}

// GatewayStats is the /v1/stats response body.
type GatewayStats struct {
	// Version is the last fleet-agreed snapshot version ("" during a
	// rollover that has not yet converged, or before first contact).
	Version string `json:"version"`
	// Skew is the current distinct-version count minus one.
	Skew int `json:"skew"`
	// Batches counts routed client batches (a single decide counts 1).
	Batches  uint64          `json:"batches"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Stats returns the gateway's current fleet view.
func (g *Gateway) Stats() GatewayStats {
	st := GatewayStats{Version: g.FleetVersion(), Batches: g.batches.Load()}
	distinct, _ := g.distinctVersions()
	st.Skew = max(len(distinct)-1, 0)
	for _, r := range g.replicas {
		st.Replicas = append(st.Replicas, ReplicaStatus{Name: r.cfg.Name, Version: r.currentVersion(), Routed: r.mRoute.Value()})
	}
	return st
}

// Handler returns the gateway's JSON API: the replica API, served by
// the same code (policyd.NewHandlerFor) so bodies and headers are a
// replica's, plus the fleet view and quota introspection.
//
//	GET  /v1/decide?host=H&agent=U&path=P  (429 + Retry-After on quota)
//	POST /v1/batch                         (one snapshot version per batch)
//	GET  /v1/stats                         (fleet view)
//	GET  /v1/quotas                        (per-tenant ledger)
//	GET  /healthz
func (g *Gateway) Handler() http.Handler {
	return policyd.NewHandlerFor(g, mGWWireJSON, mGWJSONStages, map[string]func() any{
		"/v1/stats":  func() any { return g.Stats() },
		"/v1/quotas": func() any { return g.limiter.Accounting() },
	})
}

// ServeFrames accepts binary-frame connections on ln and answers them
// through the fleet until the listener closes: policyd's frame loop over
// the gateway's Answer.
func (g *Gateway) ServeFrames(ln net.Listener) error {
	return policyd.ServeFramesFrom(ln, g, mGWWireFrame)
}
