package fleet

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policyd"
)

// faultListener hands a replica's frame server conns whose answers obey
// the replica's current fault.
type faultListener struct {
	net.Listener
	delay *atomic.Int64
}

func (l faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, delay: l.delay, closed: make(chan struct{})}, nil
}

// faultConn is a replica's side of a frame conn. Its Write, which carries
// one answer, first waits *delay, or until the conn closes; a negative
// delay swallows the answer, as a blackholed replica reads every batch
// and answers none.
type faultConn struct {
	net.Conn
	delay  *atomic.Int64
	once   sync.Once
	closed chan struct{}
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch d := time.Duration(c.delay.Load()); {
	case d < 0:
		return len(p), nil
	case d > 0:
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// A replica's state for one step of FuzzFleetUnderFaults.
const (
	healthy    = iota
	killed     // its listener and every conn it accepted are closed
	blackholed // it reads every batch and answers none
	slow       // it answers each batch after slowOK or slowTooLong
)

// What must happen before a deadline has 170 ms to spare, so that the
// wall clock of a loaded machine meets the model too.
const (
	// faultBatchTimeout is each batch's ctx: longer than a first
	// attempt's budget, so a failed owner leaves the successor time.
	faultBatchTimeout = 400 * time.Millisecond
	// slowOK is inside every budget; slowTooLong is past the first
	// attempt's budget and past the retry's ctx.
	slowOK, slowTooLong = 30 * time.Millisecond, 500 * time.Millisecond
)

// faultyReplica is one replica of FuzzFleetUnderFaults and what the test
// knows of it.
type faultyReplica struct {
	ip    string
	state int
	delay atomic.Int64 // for faultConn: 0 answers at once, <0 never
	stop  func()       // nil while killed
	// stale: the gateway's pool for this replica still holds conns that
	// its last kill closed. FIFO puts them ahead of any conn pooled since.
	stale bool
}

// serve starts the replica's frame server on a fresh listener.
func (r *faultyReplica) serve(t *testing.T, nw *netsim.Network, svc *policyd.Service) {
	t.Helper()
	ln, err := nw.Listen(r.ip, 81)
	if err != nil {
		t.Fatal(err)
	}
	frames := obs.NewCounter(`policyd_wire_requests_total{wire="frame"}`, "")
	served := make(chan error, 1)
	go func() { served <- policyd.ServeFramesFrom(faultListener{ln, &r.delay}, svc, frames) }()
	r.stop = func() {
		ln.Close()
		<-served
	}
}

// faultSnapshot is a snapshot whose hosts decide differently by agent
// and path, and the hosts it knows.
func faultSnapshot(t testing.TB) (*policyd.Snapshot, []string) {
	robots := []string{
		"",
		"User-agent: *\nDisallow: /admin/\n",
		"User-agent: GPTBot\nDisallow: /\n",
		"User-agent: CCBot\nUser-agent: ClaudeBot\nDisallow: /\n\nUser-agent: *\nAllow: /\n",
	}
	b := &policyd.Builder{}
	var hosts []string
	for i := 0; i < 48; i++ {
		h := fmt.Sprintf("f%02d.test", i)
		b.Add(h, policyd.HostConfig{RobotsTxt: robots[i%len(robots)]})
		hosts = append(hosts, h)
	}
	snap, err := b.Build(context.Background(), "v1", 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap, hosts
}

// FuzzFleetUnderFaults drives a gateway in front of three replicas
// through a schedule drawn from seed: at each step every replica is
// healthy, killed, blackholed or slow, and a few random batches go
// through the gateway, one at a time. It holds:
//   - every answered batch equals Snapshot.Decide, query by query;
//   - each failed attempt adds exactly one to fleet_replica_errors_total,
//     in its class: eof for a pooled conn that a kill closed, met even
//     after the restart; dial for a killed replica with none pooled;
//     timeout for a blackholed or too slow one. A batch whose owner and
//     ring successor both fail returns an error and no decisions;
//   - on synctest's clock each batch takes exactly its faults' time. A
//     batch failed over from a blackholed or too slow owner returns at
//     its first attempt's deadline, as replica.answer computes it, plus
//     the successor's time; a killed owner's fails over at once.
//
// Run it with GOEXPERIMENT=synctest, where a fault costs no wall time.
// Between them the seeds meet every pairing of owner and successor fault
// that 40 seeds meet, stale pools included.
func FuzzFleetUnderFaults(f *testing.F) {
	for _, seed := range []uint64{8, 14, 16, 19, 20, 24, 33} {
		f.Add(seed)
	}
	snap, hosts := faultSnapshot(f)
	svc := policyd.NewService(snap)
	f.Fuzz(func(t *testing.T, seed uint64) {
		bubble(t, func() { runFaultSchedule(t, seed, snap, svc, hosts) })
	})
}

func runFaultSchedule(t *testing.T, seed uint64, snap *policyd.Snapshot, svc *policyd.Service, hosts []string) {
	rng := rand.New(rand.NewPCG(seed, 0))
	nw := netsim.New()
	rs := make([]*faultyReplica, 3)
	var rcs []ReplicaConfig
	for i := range rs {
		rs[i] = &faultyReplica{ip: fmt.Sprintf("10.0.1.%d", i+1)}
		rs[i].serve(t, nw, svc)
		rcs = append(rcs, ReplicaConfig{Name: fmt.Sprintf("faulty%d", i), FrameAddr: rs[i].ip + ":81"})
	}
	defer func() {
		for _, r := range rs {
			if r.stop != nil {
				r.stop()
			}
		}
	}()
	gw, err := NewGateway(Config{
		Replicas: rcs,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nw.Dial(ctx, ClientIP, addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	agents := []string{"GPTBot", "CCBot", "ClaudeBot", "Googlebot", "Mozilla"}
	paths := []string{"/", "/admin/x", "/a.html", "/private/p"}
	// On the wall clock each fault costs its real time, so there a seed
	// runs only the first two of its five steps.
	steps := 5
	if !syntheticClock {
		steps = 2
	}
	for step := 0; step < steps; step++ {
		for i, r := range rs {
			state, delay := rng.IntN(4), int64(0)
			switch state {
			case blackholed:
				delay = -1
			case slow:
				delay = int64([]time.Duration{slowOK, slowTooLong}[rng.IntN(2)])
			}
			switch {
			case state == killed && r.state != killed:
				r.stop()
				r.stop = nil
				r.stale = len(gw.replicas[i].pool) > 0
			case state != killed && r.state == killed:
				r.serve(t, nw, svc)
			}
			r.state = state
			r.delay.Store(delay)
		}
		for n := 1 + rng.IntN(3); n > 0; n-- {
			qs := make([]policyd.Query, 1+rng.IntN(8))
			for i := range qs {
				qs[i] = policyd.Query{Host: hosts[rng.IntN(len(hosts))], Agent: agents[rng.IntN(len(agents))], Path: paths[rng.IntN(len(paths))]}
			}
			what := fmt.Sprintf("seed %d step %d batch of %d", seed, step, len(qs))
			checkFaultBatch(t, what, gw, rs, snap, qs)
		}
	}
}

// checkFaultBatch sends qs through gw and checks its decisions, its
// error, the errors it counted and, on synctest's clock, its latency
// against what rs's faults imply.
func checkFaultBatch(t *testing.T, what string, gw *Gateway, rs []*faultyReplica, snap *policyd.Snapshot, qs []policyd.Query) {
	owner, succ := gw.ring.Pick(qs[0].Host), gw.ring.successor(qs[0].Host)
	start := time.Now()
	// The owner's attempt ends at its budget; the successor's, a retry,
	// at the batch's ctx deadline.
	budget := start.Add(probeTimeout + budgetGrain - 1).Truncate(budgetGrain).Sub(start)
	want := map[string]uint64{}
	var took time.Duration
	failed := true
	switch o, d := rs[owner], time.Duration(rs[owner].delay.Load()); {
	case o.stale:
		want["eof"]++
		o.stale = false
	case o.state == killed:
		want["dial"]++
	case o.state == blackholed || d >= budget:
		want["timeout"]++
		took = budget
	default:
		failed, took = false, d
	}
	if failed {
		switch s, d := rs[succ], time.Duration(rs[succ].delay.Load()); {
		case s.state == killed:
			want["dial"]++
			s.stale = false
		case s.state == blackholed || took+d >= faultBatchTimeout:
			want["timeout"]++
			took = faultBatchTimeout
		default:
			failed, took = false, took+d
		}
	}

	before := replicaErrors()
	ctx, cancel := context.WithTimeout(context.Background(), faultBatchTimeout)
	got, _, err := gw.Answer(ctx, qs, nil)
	cancel()
	elapsed := time.Since(start)
	after := replicaErrors()

	if failed {
		if err == nil || len(got) != 0 {
			t.Fatalf("%s: owner %d and successor %d both failed, yet %d decisions and error %v", what, owner, succ, len(got), err)
		}
	} else {
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, q := range qs {
			if d := snap.Decide(q); got[i] != d {
				t.Fatalf("%s: query %+v: %+v through the gateway, %+v from the snapshot", what, q, got[i], d)
			}
		}
	}
	for class := range after {
		if n := after[class] - before[class]; n != want[class] {
			t.Errorf("%s: %d %s errors, want %d", what, n, class, want[class])
		}
	}
	if syntheticClock && elapsed != took {
		t.Errorf("%s: answered after %v of synthetic time, want exactly %v", what, elapsed, took)
	}
}
