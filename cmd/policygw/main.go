// Command policygw fronts a policyd fleet over real TCP: a
// consistent-hash gateway routing /v1/decide, /v1/batch, and the binary
// frame protocol across N replicas, with per-tenant token-bucket rate
// limiting and snapshot-version-coordinated hot reloads.
//
// Replicas are named by the host:port of their JSON listeners, but the
// gateway speaks to them only on their frame listeners, by convention
// at port+1. Endpoints that deviate spell both ports as host:json:frame.
//
//	go run ./cmd/policyd -addr :8473 -frame-addr :8474 &
//	go run ./cmd/policyd -addr :8483 -frame-addr :8484 &
//	go run ./cmd/policygw -addr :9473 -frame-addr :9474 \
//	    -replicas localhost:8473,localhost:8483 -rate 50000
//
// The gateway sends each batch whole to the replica its first host
// hashes to, so one batch is always answered from one snapshot
// version, rollover or not; it answers over-quota tenants with 429 +
// Retry-After (HTTP) or an in-band rate-limit frame (binary). It
// learns each replica's version from that replica's answers and from
// an empty-batch probe on its frame listener, and /v1/stats names the
// fleet-wide version once every replica has swapped. /v1/quotas
// exposes the per-tenant ledger; the same ledger is printed at exit.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
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
	addr := flag.String("addr", ":9473", "TCP listen address for the JSON API")
	frameAddr := flag.String("frame-addr", "", "TCP listen address for the binary frame protocol (empty = off)")
	metricsAddr := flag.String("metrics-addr", "", "side TCP listen address for /metrics (empty = off)")
	replicas := flag.String("replicas", "", "comma-separated replica endpoints: host:port (frame = port+1) or host:json:frame")
	rate := flag.Float64("rate", 0, "per-tenant admitted decisions/sec (0 = accounting only, no limiting)")
	burst := flag.Float64("burst", 0, "per-tenant token-bucket burst (0 = derived from rate)")
	flag.Parse()

	if err := run(*addr, *frameAddr, *metricsAddr, *replicas, *rate, *burst); err != nil {
		fmt.Fprintf(os.Stderr, "policygw: %v\n", err)
		os.Exit(1)
	}
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

func run(addr, frameAddr, metricsAddr, replicas string, rate, burst float64) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rcs, err := parseReplicas(replicas)
	if err != nil {
		return err
	}
	var dialer net.Dialer
	gw, err := fleet.NewGateway(fleet.Config{
		Replicas: rcs,
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
		fmt.Fprintf(os.Stderr, "policygw: replica %s (frames %s)\n", rc.Name, rc.FrameAddr)
	}

	srv := &http.Server{Addr: addr, Handler: gw.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
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

	var metricsSrv *http.Server
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler())
		metricsSrv = &http.Server{Addr: metricsAddr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
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
