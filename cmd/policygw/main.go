// Command policygw fronts a policyd fleet over real TCP: a
// consistent-hash gateway routing /v1/decide, /v1/batch, and the binary
// frame protocol across N replicas, with per-tenant token-bucket rate
// limiting and snapshot-version-coordinated hot reloads.
//
// Replicas are named host:port endpoints of their JSON listeners; by
// convention the frame listener is port+1 and the version-watch
// listener port+2 (how scripts/fleetbench.sh and the CI gate lay the
// fleet out). Endpoints that deviate can spell all three ports
// explicitly as host:json:frame:watch.
//
//	go run ./cmd/policyd -addr :8473 -frame-addr :8474 -watch-addr :8475 &
//	go run ./cmd/policyd -addr :8483 -frame-addr :8484 -watch-addr :8485 &
//	go run ./cmd/policygw -addr :9473 -frame-addr :9474 -watch-addr :9475 \
//	    -replicas localhost:8473,localhost:8483 -rate 50000
//
// The gateway sends each batch whole to the replica its first host
// hashes to, so one batch is always answered from one snapshot
// version, rollover or not; it answers over-quota tenants with 429 +
// Retry-After (HTTP) or an in-band rate-limit frame (binary), and
// republishes the fleet-wide version on its own -watch-addr once every
// replica has swapped. /v1/quotas exposes the per-tenant ledger; the same ledger
// is printed at exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":9473", "TCP listen address for the JSON API")
	frameAddr := flag.String("frame-addr", "", "TCP listen address for the binary frame protocol (empty = off)")
	watchAddr := flag.String("watch-addr", "", "TCP listen address announcing the fleet-wide snapshot version (empty = off)")
	metricsAddr := flag.String("metrics-addr", "", "side TCP listen address for /metrics (empty = off)")
	replicas := flag.String("replicas", "", "comma-separated replica endpoints: host:port (frame = port+1, watch = port+2) or host:json:frame:watch")
	rate := flag.Float64("rate", 0, "per-tenant admitted decisions/sec (0 = accounting only, no limiting)")
	burst := flag.Float64("burst", 0, "per-tenant token-bucket burst (0 = derived from rate)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default)")
	flag.Parse()

	if err := run(*addr, *frameAddr, *watchAddr, *metricsAddr, *replicas, *rate, *burst, *vnodes); err != nil {
		fmt.Fprintf(os.Stderr, "policygw: %v\n", err)
		os.Exit(1)
	}
}

// parseReplicas expands the -replicas flag into named replica configs.
// host:port means (json=port, frame=port+1, watch=port+2);
// host:json:frame:watch spells every listener.
func parseReplicas(spec string) ([]fleet.ReplicaConfig, error) {
	var rcs []fleet.ReplicaConfig
	for i, ep := range strings.Split(spec, ",") {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		parts := strings.Split(ep, ":")
		var host string
		var jsonPort, framePort, watchPort int
		switch len(parts) {
		case 2:
			host = parts[0]
			if _, err := fmt.Sscanf(parts[1], "%d", &jsonPort); err != nil {
				return nil, fmt.Errorf("replica %q: bad port %q", ep, parts[1])
			}
			framePort, watchPort = jsonPort+1, jsonPort+2
		case 4:
			host = parts[0]
			for j, dst := range []*int{&jsonPort, &framePort, &watchPort} {
				if _, err := fmt.Sscanf(parts[1+j], "%d", dst); err != nil {
					return nil, fmt.Errorf("replica %q: bad port %q", ep, parts[1+j])
				}
			}
		default:
			return nil, fmt.Errorf("replica %q: want host:port or host:json:frame:watch", ep)
		}
		rcs = append(rcs, fleet.ReplicaConfig{
			Name:      fmt.Sprintf("policyd-%d@%s:%d", i, host, jsonPort),
			FrameAddr: fmt.Sprintf("%s:%d", host, framePort),
			WatchAddr: fmt.Sprintf("%s:%d", host, watchPort),
		})
	}
	if len(rcs) == 0 {
		return nil, errors.New("-replicas is required (comma-separated host:port list)")
	}
	return rcs, nil
}

func run(addr, frameAddr, watchAddr, metricsAddr, replicas string, rate, burst float64, vnodes int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rcs, err := parseReplicas(replicas)
	if err != nil {
		return err
	}
	var dialer net.Dialer
	gw, err := fleet.NewGateway(fleet.Config{
		Replicas: rcs,
		VNodes:   vnodes,
		Rate:     rate,
		Burst:    burst,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, "tcp", addr)
		},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	gw.Start(ctx)
	for _, rc := range rcs {
		fmt.Fprintf(os.Stderr, "policygw: replica %s (frames %s, watch %s)\n", rc.Name, rc.FrameAddr, rc.WatchAddr)
	}

	srv := &http.Server{Addr: addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "policygw: routing %d replicas on %s\n", len(rcs), addr)

	var frameLn net.Listener
	if frameAddr != "" {
		frameLn, err = net.Listen("tcp", frameAddr)
		if err != nil {
			return fmt.Errorf("frame listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "policygw: frame protocol on %s\n", frameLn.Addr())
		go func() {
			if err := gw.ServeFrames(frameLn); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "policygw: frame serve: %v\n", err)
			}
		}()
	}

	var watchLn net.Listener
	if watchAddr != "" {
		watchLn, err = net.Listen("tcp", watchAddr)
		if err != nil {
			return fmt.Errorf("watch listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "policygw: fleet version watch on %s\n", watchLn.Addr())
		go func() {
			if err := gw.ServeWatch(watchLn); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "policygw: watch serve: %v\n", err)
			}
		}()
	}

	var metricsSrv *http.Server
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler())
		metricsSrv = &http.Server{Addr: metricsAddr, Handler: mux}
		fmt.Fprintf(os.Stderr, "policygw: metrics on %s\n", metricsAddr)
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "policygw: metrics serve: %v\n", err)
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
	if watchLn != nil {
		watchLn.Close()
	}
	if metricsSrv != nil {
		metricsSrv.Shutdown(shutCtx)
	}
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}

	st := gw.Stats()
	fmt.Fprintf(os.Stderr, "policygw: routed %d batches at fleet version %s; bye\n", st.Batches, st.Version)
	// The per-tenant quota ledger, one JSON document, for harness capture.
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	enc.Encode(gw.Limiter().Accounting())
	return nil
}
