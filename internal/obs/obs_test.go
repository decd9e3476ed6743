package obs

import (
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	c := newCounter()
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := newCounter()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("Value = %d, want %d", got, goroutines*per)
	}
}

func TestGaugeBasics(t *testing.T) {
	g := newGauge()
	g.Set(1.5)
	g.Add(2.0)
	g.Add(-0.5)
	if got := g.Value(); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("Value = %g, want 3.0", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21}, {^uint64(0), histBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every bucket's upper bound must land in its own bucket.
	for i := 0; i < 63; i++ {
		if got := bucketOf(bucketUpper(i)); got != i {
			t.Errorf("bucketOf(BucketUpper(%d)=%d) = %d", i, bucketUpper(i), got)
		}
	}
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	h := newHistogram()
	vals := []uint64{1, 2, 3, 100, 1000, 1000, 5000, 1 << 20}
	for _, v := range vals {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(vals))
	}
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	if s.Sum != sum {
		t.Fatalf("Sum = %d, want %d", s.Sum, sum)
	}
	// The quantile bucket must contain the exact sample at the same
	// rank loadgen's pctile uses: sorted[int(q*(n-1))].
	sorted := append([]uint64{}, vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		want := sorted[int(q*float64(len(sorted)-1))]
		lo, hi := s.Quantile(q)
		if want <= lo || want > hi {
			t.Errorf("Quantile(%g) = (%d, %d], exact sample %d outside", q, lo, hi, want)
		}
	}
}

func TestHistogramSub(t *testing.T) {
	h := newHistogram()
	h.Observe(10)
	before := h.Snapshot()
	h.Observe(20)
	h.Observe(30)
	d := h.Snapshot().Sub(before)
	if d.Count != 2 || d.Sum != 50 {
		t.Fatalf("delta count=%d sum=%d, want 2/50", d.Count, d.Sum)
	}
}

// TestRecordPathsZeroAlloc is the satellite guard: every record path
// must be allocation-free.
func TestRecordPathsZeroAlloc(t *testing.T) {
	c, g, h := newCounter(), newGauge(), newHistogram()
	start := time.Now()
	paths := map[string]func(){
		"Counter.Add":            func() { c.Add(3) },
		"Counter.Inc":            func() { c.Inc() },
		"Gauge.Set":              func() { g.Set(1.0) },
		"Gauge.Add":              func() { g.Add(1.0) },
		"Histogram.Observe":      func() { h.Observe(123456) },
		"Histogram.ObserveSince": func() { h.ObserveSince(start) },
	}
	for name, fn := range paths {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", name, n)
		}
	}
}

func TestRegistryPrometheusRender(t *testing.T) {
	r := newRegistry()
	c := r.NewCounter(`demo_requests_total{path="fast"}`, "Requests.")
	c2 := r.NewCounter(`demo_requests_total{path="legacy"}`, "Requests.")
	g := r.NewGauge("demo_active_conns", "Active conns.")
	h := r.NewHistogram("demo_latency_ns", "Latency.")
	c.Add(5)
	c2.Add(2)
	g.Set(3)
	h.Observe(100)
	h.Observe(2000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE demo_requests_total counter",
		`demo_requests_total{path="fast"} 5`,
		`demo_requests_total{path="legacy"} 2`,
		"# TYPE demo_active_conns gauge",
		"demo_active_conns 3",
		"# TYPE demo_latency_ns histogram",
		`demo_latency_ns_bucket{le="128"} 1`,
		`demo_latency_ns_bucket{le="2048"} 2`,
		`demo_latency_ns_bucket{le="+Inf"} 2`,
		"demo_latency_ns_sum 2100",
		"demo_latency_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
	// TYPE must appear exactly once per family.
	if n := strings.Count(out, "# TYPE demo_requests_total"); n != 1 {
		t.Errorf("TYPE line for demo_requests_total appears %d times", n)
	}
	checkPrometheusParseable(t, out)
}

// checkPrometheusParseable is a minimal exposition-format validator:
// every non-comment line is `series value` where series is a metric
// name with optional well-formed {label="value"} set.
func checkPrometheusParseable(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Errorf("unparseable line %q", line)
			continue
		}
		series := line[:sp]
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Errorf("bad label set in %q", line)
			}
		}
		val := line[sp+1:]
		if val == "" || strings.ContainsAny(val, " \t") {
			t.Errorf("bad value in %q", line)
		}
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := newRegistry()
	a := r.NewCounter("dup_total", "x")
	b := r.NewCounter("dup_total", "x")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registered counter not shared")
	}
}

func TestRegistryJSON(t *testing.T) {
	r := newRegistry()
	r.NewCounter("j_total", "x").Add(7)
	h := r.NewHistogram("j_lat_ns", "x")
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i * 10)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"j_total": 7`) {
		t.Errorf("JSON missing counter: %s", out)
	}
	if !strings.Contains(out, `"count":100`) {
		t.Errorf("JSON missing histogram count: %s", out)
	}
}

func TestHandler(t *testing.T) {
	r := newRegistry()
	r.NewCounter("h_total", "x").Add(9)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for _, tc := range []struct{ url, want, ctype string }{
		{srv.URL, "h_total 9", "text/plain"},
		{srv.URL + "?format=json", `"h_total": 9`, "application/json"},
	} {
		resp, err := srv.Client().Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1<<16)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if !strings.Contains(string(body[:n]), tc.want) {
			t.Errorf("GET %s missing %q: %s", tc.url, tc.want, body[:n])
		}
		if !strings.Contains(resp.Header.Get("Content-Type"), tc.ctype) {
			t.Errorf("GET %s Content-Type = %q", tc.url, resp.Header.Get("Content-Type"))
		}
	}
}

func TestRuntimeCollector(t *testing.T) {
	sampleRuntime()
	if gGCCycles.Value() < 0 {
		t.Fatal("negative GC cycles")
	}
	if gHeapObjects.Value() <= 0 {
		t.Fatal("heap objects gauge not populated")
	}
	// The collector is wired into Default: rendering must include the
	// runtime families.
	var b strings.Builder
	if err := Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_gc_mark_cpu_seconds", "go_heap_objects_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Default render missing %s", want)
		}
	}
}
