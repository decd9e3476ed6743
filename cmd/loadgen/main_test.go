package main

import (
	"context"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/policyd"
	"repro/internal/stats"
)

func TestReservoirBelowCapKeepsEverything(t *testing.T) {
	r := newReservoir(stats.NewRand(1).Fork("t"))
	for i := 1; i <= 100; i++ {
		r.add(time.Duration(i))
	}
	if len(r.samples) != 100 || r.seen != 100 {
		t.Fatalf("len=%d seen=%d, want 100/100", len(r.samples), r.seen)
	}
	for i, d := range r.samples {
		if d != time.Duration(i+1) {
			t.Fatalf("sample %d = %d, want insertion order below cap", i, d)
		}
	}
	if r.max != 100 {
		t.Fatalf("max = %d, want 100", r.max)
	}
}

func TestReservoirBoundedAndUnbiased(t *testing.T) {
	const n = 200_000
	r := newReservoir(stats.NewRand(7).Fork("t"))
	for i := 1; i <= n; i++ {
		r.add(time.Duration(i))
	}
	if len(r.samples) != reservoirSize {
		t.Fatalf("len = %d, want the %d cap", len(r.samples), reservoirSize)
	}
	if r.seen != n {
		t.Fatalf("seen = %d, want %d", r.seen, n)
	}
	if r.max != n {
		t.Fatalf("max = %d, want the exact maximum %d", r.max, n)
	}
	// Unbiased sampling: the held sample's mean must sit near the stream
	// mean (n/2). A hopelessly biased reservoir (e.g. keeping only the
	// first or last cap-full) would be off by ~50%.
	var sum float64
	for _, d := range r.samples {
		sum += float64(d)
	}
	mean := sum / float64(len(r.samples))
	if mean < 0.45*n/2 || mean > 1.55*n/2 {
		t.Fatalf("sample mean %.0f too far from stream mean %d", mean, n/2)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	build := func() []time.Duration {
		r := newReservoir(stats.NewRand(42).Fork("same"))
		for i := 0; i < 50_000; i++ {
			r.add(time.Duration(i))
		}
		return r.samples
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverged across identical seeds: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestReservoirAddDoesNotAllocate(t *testing.T) {
	r := newReservoir(stats.NewRand(3).Fork("t"))
	for i := 0; i < 2*reservoirSize; i++ {
		r.add(time.Duration(i)) // past the cap, into replacement mode
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		r.add(time.Duration(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("reservoir.add allocates %.1f per call in steady state, want 0", allocs)
	}
}

// TestReservoirHistogramAgree cross-checks the two latency pipelines:
// reservoir.add feeds every sample to both the reservoir and the obs
// histogram, so below the reservoir cap (where the reservoir holds the
// complete stream) the reservoir's exact percentiles must land inside
// the histogram's quantile bucket at the same rank definition.
func TestReservoirHistogramAgree(t *testing.T) {
	before := mCallLatency.Snapshot()
	r := newReservoir(stats.NewRand(11).Fork("xcheck"))
	rn := stats.NewRand(12).Fork("lat")
	const n = 3000 // < reservoirSize: the reservoir keeps everything
	for i := 0; i < n; i++ {
		// A latency-shaped spread: ~1µs..~500µs with a heavy-ish tail.
		d := time.Duration(1000 + rn.Intn(500_000))
		r.add(d)
	}
	delta := mCallLatency.Snapshot().Sub(before)
	if delta.Count != n {
		t.Fatalf("histogram saw %d samples, reservoir fed %d", delta.Count, n)
	}

	sorted := append([]time.Duration{}, r.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.50, 0.90, 0.99} {
		exact := uint64(pctile(sorted, q))
		lo, hi := delta.Quantile(q)
		if exact <= lo || exact > hi {
			t.Errorf("q=%.2f: reservoir %d outside histogram bucket (%d, %d]", q, exact, lo, hi)
		}
	}
}

func TestFrameAddr(t *testing.T) {
	for in, want := range map[string]string{
		"localhost:8474":         "localhost:8474",
		"http://localhost:8474":  "localhost:8474",
		"http://localhost:8474/": "localhost:8474",
		"10.1.2.3:99":            "10.1.2.3:99",
	} {
		if got := frameAddr(in); got != want {
			t.Errorf("frameAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDriveBinaryWireMatchesInProcess serves a small snapshot over the
// frame protocol on a loopback listener and checks the binary drive path
// returns the exact decision mix the in-process path computes.
func TestDriveBinaryWireMatchesInProcess(t *testing.T) {
	b := &policyd.Builder{}
	b.Add("allow.test", policyd.HostConfig{})
	b.Add("deny.test", policyd.HostConfig{RobotsTxt: "User-agent: *\nDisallow: /\n"})
	b.Add("block.test", policyd.HostConfig{Blocklist: []string{"GPTBot"}})
	snap, err := b.Build(context.Background(), "drive-test", 1)
	if err != nil {
		t.Fatal(err)
	}
	svc := policyd.NewService(snap)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go policyd.ServeFrames(ln, svc)

	pool := []policyd.Query{
		{Host: "allow.test", Agent: "GPTBot", Path: "/"},
		{Host: "deny.test", Agent: "GPTBot", Path: "/page"},
		{Host: "block.test", Agent: "GPTBot", Path: "/"},
		{Host: "allow.test", Agent: "ClaudeBot", Path: "/x"},
	}
	const n = 400

	inproc := &driver{svc: svc, pool: pool, batch: 8}
	inOut := workerOut{res: newReservoir(stats.NewRand(1).Fork("a"))}
	if err := inproc.drive(0, 0, n, &inOut); err != nil {
		t.Fatal(err)
	}

	binary := &driver{targets: []string{ln.Addr().String()}, wire: "binary", pool: pool, batch: 8}
	binOut := workerOut{res: newReservoir(stats.NewRand(1).Fork("b"))}
	if err := binary.drive(0, 0, n, &binOut); err != nil {
		t.Fatal(err)
	}

	if inOut.counts != binOut.counts {
		t.Fatalf("decision mix diverged: in-process %v, binary wire %v", inOut.counts, binOut.counts)
	}
	if total := binOut.counts[0] + binOut.counts[1] + binOut.counts[2]; total != n {
		t.Fatalf("binary wire decided %d of %d queries", total, n)
	}
	if binOut.res.seen == 0 {
		t.Fatal("no latencies sampled")
	}
}
