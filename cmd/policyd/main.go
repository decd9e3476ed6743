// Command policyd serves crawl-policy decisions over real TCP: the JSON
// API (/v1/decide, /v1/batch, /v1/stats, /healthz) and, with
// -frame-addr, the binary frame protocol (internal/policyd/frame.go).
//
// A replica, the default, serves one compiled snapshot of the corpus at
// -scale; -advance steps through the snapshots on a timer, recompiling
// incrementally and logging one JSON line per swap. With -replicas it is
// the fleet gateway (internal/fleet) in front of replicas, each named by
// its JSON listener's host:port and reached on its frame listener at
// port+1 (or host:json:frame), with per-tenant limits (-rate, -burst)
// whose ledger /v1/quotas serves and exit prints. A flag that only the
// other role reads is refused.
//
//	go run ./cmd/policyd -addr :8473 -frame-addr :8474 -scale 0.1 -snap 14
//	go run ./cmd/policyd -addr :9473 -frame-addr :9474 \
//	    -replicas localhost:8473,localhost:8483 -rate 50000
//	curl 'localhost:9473/v1/decide?host=<domain>&agent=GPTBot&path=/'
//
// -metrics-addr serves /metrics and /debug/pprof/ off the service port.
// Port 0 binds a free port; each bound address is printed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // the profiler metricsMux serves
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/policyd"
	"repro/internal/stats"
)

// readHeaderTimeout bounds the wait for a request head on both HTTP
// listeners; an idle keep-alive conn lives policyd.FrameReadTimeout.
const readHeaderTimeout = 5 * time.Second

func main() {
	// The process exit releases the signal handlers.
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Stderr, os.Args[1:]))
}

// run serves until ctx ends and returns the exit code: 2 for a bad
// command line, 1 for a failure.
func run(ctx context.Context, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("policyd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8473", "TCP listen address for the JSON API")
	frameAddr := fs.String("frame-addr", "", "TCP listen address for the binary frame protocol (empty = off)")
	metricsAddr := fs.String("metrics-addr", "", "side TCP listen address for /metrics and /debug/pprof/ (empty = off)")
	replicas := fs.String("replicas", "", "run as the gateway of these replicas: comma-separated host:port (frame = port+1) or host:json:frame")
	rate := fs.Float64("rate", 0, "gateway: per-tenant admitted decisions/sec (0 = accounting only, no limiting)")
	burst := fs.Float64("burst", 0, "gateway: per-tenant token-bucket burst (0 = derived from rate)")
	seed := fs.Int64("seed", stats.DefaultSeed, "replica: corpus seed")
	scale := fs.Float64("scale", 0.05, "replica: corpus scale (1.0 = 40,455 hosts)")
	snapIdx := fs.Int("snap", len(corpus.Snapshots)-1, "replica: corpus snapshot index to serve (0-14)")
	advance := fs.Duration("advance", 0, "replica: hot-reload to the next corpus snapshot on this interval (0 = off)")
	workers := fs.Int("workers", 0, "replica: compile workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// -replicas picks the role, and a flag's usage names the one role
	// that reads it.
	gateway, code := *replicas != "", 0
	other := map[bool]string{false: "gateway", true: "replica"}[gateway]
	fs.Visit(func(f *flag.Flag) {
		if code == 0 && strings.HasPrefix(f.Usage, other+": ") {
			fmt.Fprintf(stderr, "policyd: -%s is a %s flag; -replicas makes a gateway, its absence a replica\n", f.Name, other)
			code = 2
		}
	})
	if code == 0 && (*snapIdx < 0 || *snapIdx >= len(corpus.Snapshots)) {
		fmt.Fprintf(stderr, "policyd: -snap %d is not a corpus snapshot index (0-%d)\n", *snapIdx, len(corpus.Snapshots)-1)
		code = 2
	}
	if code != 0 {
		return code
	}
	var r role
	var err error
	if gateway {
		r, err = gatewayRole(ctx, stderr, *replicas, *rate, *burst)
	} else {
		r, err = replicaRole(ctx, stderr, *seed, *scale, *snapIdx, *advance, *workers)
	}
	if err == nil {
		err = serve(ctx, stderr, r, *addr, *frameAddr, *metricsAddr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "policyd: %v\n", err)
		return 1
	}
	r.bye()
	return 0
}

// role is what the daemon serves, on which wire, and what it prints at exit.
type role struct {
	what  string
	api   http.Handler
	frame func(net.Listener) error
	bye   func()
}

// serve binds the JSON listener and the optional frame and metrics
// listeners in turn, printing each bound address and serving r on it,
// until ctx ends or a bind or a server fails; then it shuts all down.
func serve(ctx context.Context, stderr io.Writer, r role, addr, frameAddr, metricsAddr string) error {
	srv := &http.Server{Handler: r.api, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: policyd.FrameReadTimeout}
	metrics := &http.Server{Handler: metricsMux(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: policyd.FrameReadTimeout}
	names := [3]string{"serving " + r.what, "frame protocol", "metrics and pprof"}
	serves := [3]func(net.Listener) error{srv.Serve, r.frame, metrics.Serve}
	errc := make(chan error, len(serves))
	var lns []net.Listener
	var err error
	for i, a := range [3]string{addr, frameAddr, metricsAddr} {
		if a == "" && i > 0 {
			continue
		}
		var ln net.Listener
		if ln, err = net.Listen("tcp", a); err != nil {
			break
		}
		fmt.Fprintf(stderr, "policyd: %s on %s\n", names[i], ln.Addr())
		lns = append(lns, ln)
		go func() { errc <- serves[i](ln) }()
	}
	running := len(lns)
	if err == nil {
		select {
		case err = <-errc:
			running--
		case <-ctx.Done():
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	for _, ln := range lns {
		ln.Close()
	}
	for ; running > 0; running-- {
		if e := <-errc; err == nil && !errors.Is(e, http.ErrServerClosed) && !errors.Is(e, net.ErrClosed) {
			err = e
		}
	}
	return err
}

// metricsMux assembles the side listener's handler: the obs registry
// plus the profiler, which net/http/pprof registers on DefaultServeMux.
func metricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler())
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// replicaRole compiles the corpus snapshot into a Service and, with
// advance, starts the hot-reload loop, which runs until ctx ends.
func replicaRole(ctx context.Context, stderr io.Writer, seed int64, scale float64, snapIdx int, advance time.Duration, workers int) (role, error) {
	start := time.Now()
	c, err := corpus.New(ctx, corpus.Config{Seed: seed, Scale: scale, Workers: workers})
	if err != nil {
		return role{}, err
	}
	fmt.Fprintf(stderr, "policyd: corpus ready (%d hosts, %.1fs)\n", len(c.Sites()), time.Since(start).Seconds())
	snap, err := policyd.FromCorpus(ctx, c, snapIdx, workers)
	if err != nil {
		return role{}, err
	}
	svc := policyd.NewService(snap)
	if advance > 0 {
		go func() {
			ticker := time.NewTicker(advance)
			defer ticker.Stop()
			for idx := snapIdx; ; {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				t0, from := time.Now(), corpus.Snapshots[idx].Date
				idx = (idx + 1) % len(corpus.Snapshots)
				next, err := policyd.FromCorpusIncremental(ctx, c, idx, workers, svc.Current())
				if err != nil {
					fmt.Fprintf(stderr, "policyd: reload: %v\n", err)
					continue
				}
				compileMs := float64(time.Since(t0).Microseconds()) / 1000
				fmt.Fprintf(stderr,
					`{"event":"snapshot_swap","old_version":%q,"old_date":%q,"new_version":%q,"new_date":%q,"compile_ms":%.1f,"hosts":%d,"hosts_reused":%d,"queries_served":%d}`+"\n",
					svc.Swap(next).Version, from.Format("2006-01-02"), next.Version, corpus.Snapshots[idx].Date.Format("2006-01-02"),
					compileMs, next.Len(), next.ReusedHosts(), svc.Stats().Queries)
			}
		}()
	}
	return role{
		what:  snap.String(),
		api:   policyd.NewHandler(svc),
		frame: func(ln net.Listener) error { return policyd.ServeFrames(ln, svc) },
		bye: func() {
			st := svc.Stats()
			fmt.Fprintf(stderr, "policyd: served %d decisions from %s; bye\n", st.Queries, st.Version)
		},
	}, nil
}

// gatewayRole builds the fleet gateway over the -replicas spec on real
// TCP and starts its version probers, which run until ctx ends.
func gatewayRole(ctx context.Context, stderr io.Writer, replicas string, rate, burst float64) (role, error) {
	rcs, err := parseReplicas(replicas)
	if err != nil {
		return role{}, err
	}
	gw, err := fleet.NewGateway(fleet.Config{
		Replicas: rcs,
		Rate:     rate,
		Burst:    burst,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, "tcp", addr)
		},
	})
	if err != nil {
		return role{}, err
	}
	gw.Start(ctx)
	for _, rc := range rcs {
		fmt.Fprintf(stderr, "policyd: replica %s (frames %s)\n", rc.Name, rc.FrameAddr)
	}
	return role{
		what:  fmt.Sprintf("the gateway of %d replicas", len(rcs)),
		api:   gw.Handler(),
		frame: gw.ServeFrames,
		bye: func() {
			gw.Close()
			st := gw.Stats()
			// The quota ledger, for harnesses: a diagnostic, which an encoding error only empties.
			ledger, _ := json.MarshalIndent(gw.Limiter().Accounting(), "", "  ")
			fmt.Fprintf(stderr, "policyd: routed %d batches at fleet version %s; bye\n%s\n", st.Batches, st.Version, ledger)
		},
	}, nil
}

// parseReplicas expands the -replicas flag into named replica configs.
// host:port means (json=port, frame=port+1); host:json:frame spells
// both listeners. Every port, derived or spelled, is in [1, 65535].
func parseReplicas(spec string) ([]fleet.ReplicaConfig, error) {
	var rcs []fleet.ReplicaConfig
	for i, ep := range strings.Split(spec, ",") {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		parts := strings.Split(ep, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("replica %q: want host:port or host:json:frame", ep)
		}
		host := parts[0]
		ports := make([]int, len(parts)-1)
		for j := range ports {
			p, err := strconv.Atoi(parts[1+j])
			if err != nil || p < 1 || p > 65535 {
				return nil, fmt.Errorf("replica %q: bad port %q", ep, parts[1+j])
			}
			ports[j] = p
		}
		jsonPort, framePort := ports[0], ports[0]+1
		if len(ports) == 2 {
			framePort = ports[1]
		}
		if framePort > 65535 {
			return nil, fmt.Errorf("replica %q: frame port %d out of range", ep, framePort)
		}
		rcs = append(rcs, fleet.ReplicaConfig{
			Name:      fmt.Sprintf("policyd-%d@%s:%d", i, host, jsonPort),
			FrameAddr: fmt.Sprintf("%s:%d", host, framePort),
		})
	}
	if len(rcs) == 0 {
		return nil, errors.New("-replicas is required (comma-separated host:port list)")
	}
	return rcs, nil
}
