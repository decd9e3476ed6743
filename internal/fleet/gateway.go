package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
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
		"Fleet-version invalidations published to gateway watch subscribers.")
	mGWWireJSON = obs.NewCounter(`fleet_gateway_requests_total{wire="json"}`,
		"Gateway-level decision requests, by protocol.")
	mGWWireFrame = obs.NewCounter(`fleet_gateway_requests_total{wire="frame"}`,
		"Gateway-level decision requests, by protocol.")
)

// ReplicaConfig locates one policyd replica on whatever transport the
// gateway's Dial reaches.
type ReplicaConfig struct {
	// Name identifies the replica on the hash ring and in metrics; it
	// must be unique and stable (a membership change moves only the
	// changed name's keys).
	Name string
	// BaseURL is the replica's JSON API root ("http://10.0.0.11:80").
	BaseURL string
	// FrameAddr is the replica's binary-frame listener ("10.0.0.11:81").
	FrameAddr string
	// WatchAddr is the replica's version watch listener; "" disables
	// watching (versions are then learned from decide responses only).
	WatchAddr string
}

// Config assembles a Gateway.
type Config struct {
	Replicas []ReplicaConfig
	// VNodes per replica on the ring; <= 0 means DefaultVNodes.
	VNodes int
	// Rate/Burst configure per-tenant token buckets (tokens/sec and
	// bucket depth). Rate 0 disables limiting; Burst 0 defaults to
	// max(Rate, 2×policyd.MaxBatch) so a full batch always fits.
	Rate, Burst float64
	// Now is the limiter clock; nil means time.Now.
	Now func() time.Time
	// Dial reaches replica FrameAddr/WatchAddr values.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// Gateway routes decision traffic across policyd replicas: per-tenant
// rate limiting at admission, each admitted batch sent whole to the
// replica its first host hashes to on the consistent-hash ring (one
// replica, one snapshot: a batch cannot straddle versions), and a
// version feed that tells connected clients when the whole fleet has
// rolled to a new snapshot.
type Gateway struct {
	cfg      Config
	ring     *Ring
	replicas []*replica
	limiter  *Limiter
	feed     *policyd.VersionFeed

	vmu          sync.Mutex
	fleetVersion string

	batches atomic.Uint64
	states  sync.Pool
}

// replica is one fleet member's runtime state.
type replica struct {
	cfg      ReplicaConfig
	gw       *Gateway
	pool     chan *policyd.FrameClientV2
	version  sync.Mutex // guards ver
	ver      string
	mRoute   *obs.Counter
	mLatency *obs.Histogram
}

// NewGateway validates cfg and builds the gateway. Call Start to begin
// watching replica versions, then serve with Handler, ServeFrames, and
// ServeWatch.
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
		ring:    NewRing(names, cfg.VNodes),
		limiter: NewLimiter(cfg.Rate, cfg.Burst, cfg.Now),
		feed:    policyd.NewVersionFeed(""),
	}
	for _, rc := range cfg.Replicas {
		g.replicas = append(g.replicas, &replica{
			cfg:  rc,
			gw:   g,
			pool: make(chan *policyd.FrameClientV2, 16),
			mRoute: obs.NewCounter(fmt.Sprintf(`fleet_route_total{replica=%q}`, rc.Name),
				"Decisions routed to each replica."),
			mLatency: obs.NewHistogram(fmt.Sprintf(`fleet_replica_latency_ns{replica=%q}`, rc.Name),
				"Round-trip latency of one routed batch per replica, ns."),
		})
	}
	return g, nil
}

// Start launches the per-replica watch loops; they reconnect with
// backoff until ctx is done. Without Start the gateway still works —
// versions are learned from decide responses — but swap invalidations
// reach clients only after the next routed batch.
func (g *Gateway) Start(ctx context.Context) {
	for _, r := range g.replicas {
		if r.cfg.WatchAddr != "" {
			go r.watchLoop(ctx)
		}
	}
}

// Watch subscribes to fleet-version announcements (published when every
// replica reports the same version and it changed).
func (g *Gateway) Watch() (<-chan string, func()) { return g.feed.Watch() }

// FleetVersion returns the last version the whole fleet agreed on, ""
// before the first agreement is observed.
func (g *Gateway) FleetVersion() string { return g.feed.Current() }

// Limiter exposes the gateway's quota ledger.
func (g *Gateway) Limiter() *Limiter { return g.limiter }

// ServeWatch serves fleet-version invalidations on ln with the policyd
// watch line protocol.
func (g *Gateway) ServeWatch(ln net.Listener) error { return g.feed.Serve(ln) }

// Close drains and closes all pooled replica connections.
func (g *Gateway) Close() {
	for _, r := range g.replicas {
		for {
			select {
			case fc := <-r.pool:
				fc.Close()
			default:
				goto next
			}
		}
	next:
	}
}

func (r *replica) watchLoop(ctx context.Context) {
	for ctx.Err() == nil {
		c, err := r.gw.cfg.Dial(ctx, r.cfg.WatchAddr)
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		done := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				c.Close()
			case <-done:
			}
		}()
		_ = policyd.WatchVersions(c, func(v string) bool {
			r.noteVersion(v)
			return true
		})
		close(done)
		c.Close()
		select {
		case <-ctx.Done():
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// noteVersion records a replica's observed snapshot version (from its
// watch channel or a decide response) and recomputes the fleet view.
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

// recomputeVersions refreshes the skew gauge and publishes a new fleet
// version when all replicas agree on one.
func (g *Gateway) recomputeVersions() {
	g.vmu.Lock()
	defer g.vmu.Unlock()
	distinct, unknown := g.distinctVersions()
	mVersionSkew.Set(float64(max(len(distinct)-1, 0)))
	if len(distinct) == 1 && unknown == 0 && distinct[0] != g.fleetVersion {
		g.fleetVersion = distinct[0]
		g.feed.Publish(distinct[0])
		mSwapNotify.Inc()
	}
}

// get returns a pooled or fresh frame connection to the replica.
func (r *replica) get(ctx context.Context) (*policyd.FrameClientV2, error) {
	select {
	case fc := <-r.pool:
		return fc, nil
	default:
	}
	c, err := r.gw.cfg.Dial(ctx, r.cfg.FrameAddr)
	if err != nil {
		return nil, err
	}
	return policyd.NewFrameClientV2(c)
}

func (r *replica) put(fc *policyd.FrameClientV2) {
	select {
	case r.pool <- fc:
	default:
		fc.Close()
	}
}

// decideOn answers qs on one replica, appending to out. A transport
// error retries once on a fresh connection (the pooled conn may have
// died idle); the replica's observed version updates from the response.
func (g *Gateway) decideOn(ctx context.Context, r *replica, qs []policyd.Query, out []policyd.Decision) ([]policyd.Decision, string, error) {
	base := len(out)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		fc, err := r.get(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		start := time.Now()
		ds, version, err := fc.Decide(qs, out[:base])
		if err != nil {
			fc.Close()
			lastErr = err
			continue
		}
		r.mLatency.Observe(uint64(time.Since(start)))
		r.put(fc)
		r.mRoute.Add(uint64(len(qs)))
		r.noteVersion(version)
		return ds, version, nil
	}
	return out[:base], "", fmt.Errorf("fleet: replica %s: %w", r.cfg.Name, lastErr)
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
	return g.decideOn(ctx, g.replicas[g.ring.Pick(qs[0].Host)], qs, out)
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
	return policyd.NewHandlerFor(g, mGWWireJSON, map[string]func() any{
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
