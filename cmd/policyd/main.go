// Command policyd serves the crawl-policy decision service over real
// TCP: it builds the longitudinal corpus at the requested scale,
// compiles one snapshot into the internal/policyd index, and answers
// the JSON API (/v1/decide, /v1/batch, /v1/stats, /healthz).
//
//	go run ./cmd/policyd -addr :8473 -scale 0.1 -snap 14
//	curl 'localhost:8473/v1/decide?host=<domain>&agent=GPTBot&path=/'
//
// With -advance the daemon hot-reloads through the corpus snapshots on
// a timer, demonstrating atomic snapshot swaps under live traffic, and
// logs one JSON line per swap; pair it with cmd/loadgen to watch the
// decision mix shift as the simulated months pass.
//
// -frame-addr opens a second listener speaking the binary frame protocol
// (see internal/policyd/frame.go) for batch clients that want to skip
// HTTP and JSON entirely; drive it with cmd/loadgen -wire binary.
//
// Every answer on either wire names the snapshot version that produced
// it; cmd/policygw learns each replica's version from its answers and
// from empty-batch probes on the frame listener, so a replica behind a
// gateway needs -frame-addr. Month advances with -advance recompile
// incrementally, reusing compiled host policies whose sources are
// unchanged under the robots parse-cache normalization.
//
// -metrics-addr opens an operational side listener serving the obs
// registry at /metrics (Prometheus text; ?format=json for JSON) and the
// stdlib profiler under /debug/pprof/ — kept off the service port so
// scrapes and profiles never contend with decision traffic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/policyd"
	"repro/internal/stats"
)

// Timeouts on every real-TCP HTTP server of the daemon: a client gets
// readHeaderTimeout to send a request head and a keep-alive connection
// may sit idle for idleTimeout, so a stalled or abandoned peer cannot
// hold a connection and its goroutine forever.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8473", "TCP listen address")
	frameAddr := flag.String("frame-addr", "", "second TCP listen address for the binary frame protocol (empty = off)")
	metricsAddr := flag.String("metrics-addr", "", "side TCP listen address for /metrics and /debug/pprof/ (empty = off)")
	seed := flag.Int64("seed", stats.DefaultSeed, "corpus seed")
	scale := flag.Float64("scale", 0.05, "corpus scale (1.0 = 40,455 hosts)")
	snapIdx := flag.Int("snap", len(corpus.Snapshots)-1, "corpus snapshot index to serve (0-14)")
	advance := flag.Duration("advance", 0, "hot-reload to the next corpus snapshot on this interval (0 = off)")
	workers := flag.Int("workers", 0, "compile workers (0 = GOMAXPROCS)")
	flag.Parse()

	if err := run(*addr, *frameAddr, *metricsAddr, *seed, *scale, *snapIdx, *advance, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "policyd: %v\n", err)
		os.Exit(1)
	}
}

// metricsMux assembles the side listener's handler: the obs registry
// plus the pprof endpoints the stdlib normally hangs off DefaultServeMux.
func metricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(addr, frameAddr, metricsAddr string, seed int64, scale float64, snapIdx int, advance time.Duration, workers int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	c, err := corpus.New(ctx, corpus.Config{Seed: seed, Scale: scale, Workers: workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "policyd: corpus ready (%d hosts, %.1fs)\n",
		len(c.Sites()), time.Since(start).Seconds())

	if snapIdx < 0 || snapIdx >= len(corpus.Snapshots) {
		snapIdx = len(corpus.Snapshots) - 1
	}
	snap, err := policyd.FromCorpus(ctx, c, snapIdx, workers)
	if err != nil {
		return err
	}
	svc := policyd.NewService(snap)
	fmt.Fprintf(os.Stderr, "policyd: serving %s on %s\n", snap, addr)

	srv := &http.Server{Addr: addr, Handler: policyd.NewHandler(svc), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	var metricsSrv *http.Server
	if metricsAddr != "" {
		metricsSrv = &http.Server{Addr: metricsAddr, Handler: metricsMux(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		fmt.Fprintf(os.Stderr, "policyd: metrics and pprof on %s\n", metricsAddr)
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "policyd: metrics serve: %v\n", err)
			}
		}()
	}

	var frameLn net.Listener
	if frameAddr != "" {
		frameLn, err = net.Listen("tcp", frameAddr)
		if err != nil {
			return fmt.Errorf("frame listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "policyd: frame protocol on %s\n", frameLn.Addr())
		go func() {
			if err := policyd.ServeFrames(frameLn, svc); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "policyd: frame serve: %v\n", err)
			}
		}()
	}

	if advance > 0 {
		go func() {
			ticker := time.NewTicker(advance)
			defer ticker.Stop()
			idx := snapIdx
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				oldIdx := idx
				idx = (idx + 1) % len(corpus.Snapshots)
				compileStart := time.Now()
				// Month advances recompile incrementally against the
				// serving snapshot: unchanged hosts (the vast majority
				// between adjacent months) are reused outright.
				next, err := policyd.FromCorpusIncremental(ctx, c, idx, workers, svc.Current())
				if err != nil {
					fmt.Fprintf(os.Stderr, "policyd: reload: %v\n", err)
					continue
				}
				compileDur := time.Since(compileStart)
				prev := svc.Swap(next)
				// One structured line per swap so reload behavior is
				// greppable and machine-parseable from the daemon log.
				fmt.Fprintf(os.Stderr,
					`{"event":"snapshot_swap","old_version":%q,"old_date":%q,"new_version":%q,"new_date":%q,"compile_ms":%.1f,"hosts":%d,"hosts_reused":%d,"queries_served":%d}`+"\n",
					prev.Version, corpus.Snapshots[oldIdx].Date.Format("2006-01-02"),
					next.Version, corpus.Snapshots[idx].Date.Format("2006-01-02"),
					float64(compileDur.Microseconds())/1000, next.Len(), next.ReusedHosts(), svc.Stats().Queries)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if frameLn != nil {
		frameLn.Close()
	}
	if metricsSrv != nil {
		metricsSrv.Shutdown(shutCtx)
	}
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	st := svc.Stats()
	fmt.Fprintf(os.Stderr, "policyd: served %d decisions from %s; bye\n", st.Queries, st.Version)
	return nil
}
