package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/policyd"
	"repro/internal/runstore"
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

// TestDriveWiresMatchInProcess serves a small snapshot over the frame
// protocol and the JSON API on loopback listeners and checks that the
// drive loop, at one query per call and in batches, returns the exact
// decision mix the in-process path computes on every wire.
func TestDriveWiresMatchInProcess(t *testing.T) {
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
	srv := httptest.NewServer(policyd.NewHandler(svc))
	defer srv.Close()

	pool := []policyd.Query{
		{Host: "allow.test", Agent: "GPTBot", Path: "/"},
		{Host: "deny.test", Agent: "GPTBot", Path: "/page"},
		{Host: "block.test", Agent: "GPTBot", Path: "/"},
		{Host: "allow.test", Agent: "ClaudeBot", Path: "/x"},
	}
	const n = 400

	for _, batch := range []int{1, 8} {
		inOut := workerOut{res: newReservoir(stats.NewRand(1).Fork("a"))}
		inproc := &driver{svc: svc, pool: pool, batch: batch}
		if err := inproc.drive(0, 0, n, &inOut); err != nil {
			t.Fatal(err)
		}
		if total := inOut.counts[0] + inOut.counts[1] + inOut.counts[2]; total != n || inOut.counts[1] == 0 || inOut.counts[2] == 0 {
			t.Fatalf("batch %d: in-process mix %v, want %d decisions with denies and blocks", batch, inOut.counts, n)
		}
		for _, w := range []struct{ wire, target string }{
			{"binary", ln.Addr().String()},
			{"json", srv.URL},
		} {
			out := workerOut{res: newReservoir(stats.NewRand(1).Fork(w.wire))}
			d := &driver{targets: []string{w.target}, wire: w.wire, pool: pool, batch: batch}
			if err := d.drive(0, 0, n, &out); err != nil {
				t.Fatalf("batch %d, %s wire: %v", batch, w.wire, err)
			}
			if out.counts != inOut.counts {
				t.Fatalf("batch %d: decision mix diverged: in-process %v, %s wire %v", batch, inOut.counts, w.wire, out.counts)
			}
			if out.res.seen == 0 {
				t.Fatalf("batch %d, %s wire: no latencies sampled", batch, w.wire)
			}
		}
	}
}

// TestRunStoresBenchsnap runs the command in-process against a compiled
// corpus snapshot, writing -o and -store: the -o file is one
// repro-benchsnap/1 entry that decided every issued query, and the
// stored run loads back through runstore.LoadRunDir with that same
// entry as its bench segment, byte for byte, and the same mix.
func TestRunStoresBenchsnap(t *testing.T) {
	dir := t.TempDir()
	out, store := filepath.Join(dir, "bench.json"), filepath.Join(dir, "runs")
	var stderr bytes.Buffer
	const n = 2000
	args := []string{"-scale", "0.01", "-n", fmt.Sprint(n), "-batch", "8", "-concurrency", "2", "-o", out, "-store", store}
	if code := run(&stderr, args); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	res, ok := snap.Benchmarks["policyd_loadgen_inproc"]
	if snap.Schema != "repro-benchsnap/1" || len(snap.Benchmarks) != 1 || !ok {
		t.Fatalf("-o holds schema %q, entries %v", snap.Schema, snap.Benchmarks)
	}
	m := res.Metrics
	if decided := int(m["allow"] + m["deny"] + m["block"]); res.Iterations != n || decided != n || m["decisions_per_sec"] <= 0 {
		t.Fatalf("entry: %d issued, %d decided, %v decisions/sec; want %d of each", res.Iterations, decided, m["decisions_per_sec"], n)
	}

	st, err := runstore.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("store lists %v (%v), want one run", runs, err)
	}
	r, err := runstore.LoadRunDir(filepath.Join(store, runs[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(r.Dir, "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := runstore.BenchEntry{NsPerOp: res.NsPerOp, AllocsPerOp: res.AllocsPerOp}
	if !bytes.Equal(stored, data) || len(r.Bench) != 1 || r.Bench["policyd_loadgen_inproc"] != want {
		t.Errorf("stored bench segment %v differs from -o's entry %+v", r.Bench, want)
	}
	if d := r.Decisions; r.Meta.Kind != runstore.KindLoadgen || d == nil || d.Issued != n || d.Allow+d.Deny+d.Block != n || d.Batch != 8 || d.Wire != "json" {
		t.Errorf("stored run: kind %q, mix %+v", r.Meta.Kind, d)
	}
}

// TestBadInvocations: an unknown flag exits 2 and an unknown wire 1,
// both before any load is driven.
func TestBadInvocations(t *testing.T) {
	for args, want := range map[string]int{"-no-such-flag": 2, "-wire=carrier-pigeon": 1, "-snap=99": 2, "-snap=-1": 2} {
		var stderr bytes.Buffer
		if code := run(&stderr, []string{args}); code != want || stderr.Len() == 0 {
			t.Errorf("%s: exit %d with stderr %q, want exit %d and a message", args, code, stderr.String(), want)
		}
	}
}
