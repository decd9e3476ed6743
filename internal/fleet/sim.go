package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"repro/internal/netsim"
	"repro/internal/policyd"
)

// SimFleet boots a complete fleet on one netsim network: N policyd
// replicas (each with JSON, frame, and watch listeners) and one gateway
// (same three listeners), wired together exactly as cmd/policygw wires
// real TCP. Tests and harnesses get a production-shaped topology with
// in-memory latency.
type SimFleet struct {
	NW *netsim.Network
	GW *Gateway
	// Services are the replica decision services, for direct comparison
	// and swap injection.
	Services []*policyd.Service

	// Gateway addresses, dialable from ClientIP.
	GatewayURL       string
	GatewayFrameAddr string
	GatewayWatchAddr string
	// Per-replica addresses for direct (gateway-bypassing) access.
	ReplicaURLs       []string
	ReplicaFrameAddrs []string

	cancel    context.CancelFunc
	listeners []net.Listener
	servers   []*http.Server
}

// ClientIP is the source IP SimFleet clients should dial from.
const ClientIP = "10.0.0.1"

const gatewayIP = "10.0.0.2"

// NewSimFleet starts the fleet with every replica serving snap; gwCfg
// carries the gateway knobs (VNodes, Rate, Burst, Now — Replicas and
// Dial are filled in from the simulated topology).
// Close releases all listeners and connections.
func NewSimFleet(snap *policyd.Snapshot, replicas int, gwCfg Config) (*SimFleet, error) {
	if replicas <= 0 {
		replicas = 2
	}
	nw := netsim.New()
	f := &SimFleet{NW: nw}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel

	var rcs []ReplicaConfig
	for i := 0; i < replicas; i++ {
		ip := fmt.Sprintf("10.0.0.%d", 10+i)
		name := fmt.Sprintf("policyd-%d", i)
		nw.Register(name+".fleet", ip)
		svc := policyd.NewService(snap)
		f.Services = append(f.Services, svc)

		jsonLn, err := f.listen(ip, 80)
		if err != nil {
			f.Close()
			return nil, err
		}
		srv := &http.Server{Handler: policyd.NewHandler(svc)}
		f.servers = append(f.servers, srv)
		go srv.Serve(jsonLn)

		frameLn, err := f.listen(ip, 81)
		if err != nil {
			f.Close()
			return nil, err
		}
		go policyd.ServeFrames(frameLn, svc)

		watchLn, err := f.listen(ip, 82)
		if err != nil {
			f.Close()
			return nil, err
		}
		go policyd.ServeWatch(watchLn, svc)

		rcs = append(rcs, ReplicaConfig{
			Name:      name,
			BaseURL:   "http://" + ip + ":80",
			FrameAddr: ip + ":81",
			WatchAddr: ip + ":82",
		})
		f.ReplicaURLs = append(f.ReplicaURLs, "http://"+ip+":80")
		f.ReplicaFrameAddrs = append(f.ReplicaFrameAddrs, ip+":81")
	}

	gwCfg.Replicas = rcs
	gwCfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		return nw.Dial(ctx, gatewayIP, addr)
	}
	gw, err := NewGateway(gwCfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.GW = gw
	gw.Start(ctx)

	nw.Register("gateway.fleet", gatewayIP)
	gwJSON, err := f.listen(gatewayIP, 80)
	if err != nil {
		f.Close()
		return nil, err
	}
	gwSrv := &http.Server{Handler: gw.Handler()}
	f.servers = append(f.servers, gwSrv)
	go gwSrv.Serve(gwJSON)

	gwFrame, err := f.listen(gatewayIP, 81)
	if err != nil {
		f.Close()
		return nil, err
	}
	go gw.ServeFrames(gwFrame)

	gwWatch, err := f.listen(gatewayIP, 82)
	if err != nil {
		f.Close()
		return nil, err
	}
	go gw.ServeWatch(gwWatch)

	f.GatewayURL = "http://" + gatewayIP + ":80"
	f.GatewayFrameAddr = gatewayIP + ":81"
	f.GatewayWatchAddr = gatewayIP + ":82"
	return f, nil
}

func (f *SimFleet) listen(ip string, port int) (net.Listener, error) {
	ln, err := f.NW.Listen(ip, port)
	if err != nil {
		return nil, err
	}
	f.listeners = append(f.listeners, ln)
	return ln, nil
}

// Client returns an HTTP client originating from ClientIP.
func (f *SimFleet) Client() *http.Client { return f.NW.HTTPClient(ClientIP) }

// DialFrameV2 opens a frame client from ClientIP to addr (the gateway's
// or a replica's frame listener).
func (f *SimFleet) DialFrameV2(ctx context.Context, addr string) (*policyd.FrameClientV2, error) {
	c, err := f.NW.Dial(ctx, ClientIP, addr)
	if err != nil {
		return nil, err
	}
	return policyd.NewFrameClientV2(c)
}

// DialWatch opens a raw watch connection from ClientIP to addr.
func (f *SimFleet) DialWatch(ctx context.Context, addr string) (net.Conn, error) {
	return f.NW.Dial(ctx, ClientIP, addr)
}

// Swap installs snap on replica i (announcing it on the replica's watch
// feed, which the gateway is following).
func (f *SimFleet) Swap(i int, snap *policyd.Snapshot) { f.Services[i].Swap(snap) }

// SwapAll installs snap on every replica.
func (f *SimFleet) SwapAll(snap *policyd.Snapshot) {
	for _, svc := range f.Services {
		svc.Swap(snap)
	}
}

// Close tears the fleet down: gateway conns, HTTP servers, listeners.
func (f *SimFleet) Close() {
	f.cancel()
	if f.GW != nil {
		f.GW.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	for _, ln := range f.listeners {
		ln.Close()
	}
}
