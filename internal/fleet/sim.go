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
// replicas (each with a JSON and a frame listener) and one gateway (the
// same two listeners, probing each replica's frame listener for its
// version), wired together exactly as cmd/policygw wires real TCP.
// Tests and harnesses get a production-shaped topology with in-memory
// latency.
type SimFleet struct {
	NW *netsim.Network
	GW *Gateway
	// Services are the replica decision services, for direct comparison
	// and swap injection.
	Services []*policyd.Service

	// Gateway addresses, dialable from ClientIP.
	GatewayURL       string
	GatewayFrameAddr string
	// Per-replica addresses for direct (gateway-bypassing) access.
	ReplicaURLs       []string
	ReplicaFrameAddrs []string

	cancel    context.CancelFunc
	listeners []net.Listener
	// serving counts the listeners' server goroutines; Close waits for
	// them.
	serving sync.WaitGroup
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

		h := policyd.NewHandler(svc)
		if err := f.serve(ip, 80, func(ln net.Listener) func() error { return netsim.ServeHTTP(ln, h) }); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.serve(ip, 81, func(ln net.Listener) func() error {
			return func() error { return policyd.ServeFrames(ln, svc) }
		}); err != nil {
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
	gwh := gw.Handler()
	if err := f.serve(gatewayIP, 80, func(ln net.Listener) func() error { return netsim.ServeHTTP(ln, gwh) }); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.serve(gatewayIP, 81, func(ln net.Listener) func() error {
		return func() error { return gw.ServeFrames(ln) }
	}); err != nil {
		f.Close()
		return nil, err
	}

	f.GatewayURL = "http://" + gatewayIP + ":80"
	f.GatewayFrameAddr = gatewayIP + ":81"
	return f, nil
}

// serve listens on ip:port, calls start on the listener and runs what
// it returns in a goroutine that Close waits for: a frame loop, or the
// wait of netsim.ServeHTTP, which has recorded its handler for the
// netsim client by the time serve returns.
func (f *SimFleet) serve(ip string, port int, start func(net.Listener) func() error) error {
	ln, err := f.NW.Listen(ip, port)
	if err != nil {
		return err
	}
	f.listeners = append(f.listeners, ln)
	run := start(ln)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		run()
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

// Close tears the fleet down: gateway conns, then the listeners, whose
// servers close their conns as they stop. It returns once every server
// goroutine has exited, so no conn dialed to the fleet is answered after.
func (f *SimFleet) Close() {
	f.cancel()
	if f.GW != nil {
		f.GW.Close()
	}
	for _, ln := range f.listeners {
		ln.Close()
	}
	f.serving.Wait()
}
