package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/netsim"
	"repro/internal/policyd"
)

// SimFleet boots a complete fleet on one netsim network: N policyd
// replicas (each with a JSON endpoint, a handler bound at port 80, and a
// frame listener at port 81) and one gateway (the same two endpoints,
// probing each replica's frame listener for its version), wired
// together exactly as cmd/policyd -replicas wires real TCP.
// Tests and harnesses get a production-shaped topology with in-memory
// latency.
type SimFleet struct {
	NW *netsim.Network
	GW *Gateway
	// Services are the replica decision services, for direct comparison
	// and swap injection.
	Services []*policyd.Service

	// Gateway addresses, reachable from ClientIP.
	GatewayURL       string
	GatewayFrameAddr string
	// Per-replica addresses for direct (gateway-bypassing) access.
	ReplicaURLs       []string
	ReplicaFrameAddrs []string

	cancel    context.CancelFunc
	releases  []func() // the JSON endpoints' bindings
	listeners []net.Listener
	// serving counts the frame listeners' server goroutines; Close waits
	// for them.
	serving sync.WaitGroup
}

// ClientIP is the source IP SimFleet clients should dial from.
const ClientIP = "10.0.0.1"

const gatewayIP = "10.0.0.2"

// NewSimFleet starts the fleet with every replica serving snap; gwCfg
// carries the gateway knobs (Rate, Burst, Now — Replicas and
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

		if err := f.handle(ip, policyd.NewHandler(svc)); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.serve(ip, func(ln net.Listener) error { return policyd.ServeFrames(ln, svc) }); err != nil {
			f.Close()
			return nil, err
		}

		rcs = append(rcs, ReplicaConfig{Name: name, FrameAddr: ip + ":81"})
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
	if err := f.handle(gatewayIP, gw.Handler()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.serve(gatewayIP, gw.ServeFrames); err != nil {
		f.Close()
		return nil, err
	}

	f.GatewayURL = "http://" + gatewayIP + ":80"
	f.GatewayFrameAddr = gatewayIP + ":81"
	return f, nil
}

// handle binds the JSON endpoint h at ip:80 until Close.
func (f *SimFleet) handle(ip string, h http.Handler) error {
	release, err := f.NW.Handle(ip, 80, h)
	if err != nil {
		return err
	}
	f.releases = append(f.releases, release)
	return nil
}

// serve listens on ip:81 and runs the frame loop serveFrames on the
// listener in a goroutine that Close waits for.
func (f *SimFleet) serve(ip string, serveFrames func(net.Listener) error) error {
	ln, err := f.NW.Listen(ip, 81)
	if err != nil {
		return err
	}
	f.listeners = append(f.listeners, ln)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		serveFrames(ln)
	}()
	return nil
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

// Swap installs snap on replica i; the gateway sees the new version on
// the replica's next answer or probe.
func (f *SimFleet) Swap(i int, snap *policyd.Snapshot) { f.Services[i].Swap(snap) }

// SwapAll installs snap on every replica.
func (f *SimFleet) SwapAll(snap *policyd.Snapshot) {
	for _, svc := range f.Services {
		svc.Swap(snap)
	}
}

// Close tears the fleet down: gateway conns, the JSON endpoints, then
// the frame listeners, whose servers close their conns as they stop. It
// returns once every server goroutine has exited, so no conn dialed to
// the fleet is answered after.
func (f *SimFleet) Close() {
	f.cancel()
	if f.GW != nil {
		f.GW.Close()
	}
	for _, release := range f.releases {
		release()
	}
	for _, ln := range f.listeners {
		ln.Close()
	}
	f.serving.Wait()
}
