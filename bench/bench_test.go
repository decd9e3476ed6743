package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policyd"
)

// tinySizes shrinks every input so that each workload runs in a fraction
// of a second; the code paths are the ones the real sizes take. The
// registry leaves out the three scenario experiments whose worlds are of
// a fixed size (0.7 s together at any Config).
func tinySizes() sizes {
	reg := core.Config{Seed: 1, Scale: 0.01, BlockingSites: 30, CloudflareSites: 20, Apps: 4, Workers: 4}
	var ids []string
	for _, e := range core.Experiments() {
		if !slices.Contains([]string{"scenario-adoption", "scenario-rogue", "scenario-manager"}, e.ID) {
			ids = append(ids, e.ID)
		}
	}
	return sizes{
		corpusScale: 0.01,
		cycleLen:    2048,
		batch:       64,
		callers:     2,
		warmQueries: 128,
		window:      10 * time.Millisecond,
		slice:       50 * time.Millisecond,
		reloadEvery: 20 * time.Millisecond,
		setups:      1,
		sampleFor:   time.Millisecond,

		simMonths:     3,
		simHotSites:   6,
		simTailSites:  600,
		simTailHot:    2,
		simCheckSites: 6,

		registry:      reg,
		registryCheck: reg,
		registryIDs:   ids,
		scenarioIDs:   []string{"scenario-baseline"},

		ladderCalls:    200,
		ladderHotSites: 4,
		ladderTail:     300,
		ladderPlan:     100,
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
	}{
		{1000, 0.99, 0.99}, // ten beyond exactly
		{500, 0.99, 0.98},
		{100, 0.90, 0.90},
		{50, 0.90, 0.80},
		{20, 0.90, 0.50},
		{15, 0.90, 0.50}, // fewer than ten beyond even the median: the median is the floor
		{0, 0.90, 0.50},
	} {
		if got := supportedQuantile(c.n, c.want); math.Abs(got-c.q) > 1e-12 {
			t.Errorf("supportedQuantile(%d, %g) = %g, want %g", c.n, c.want, got, c.q)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := quantile(sorted, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := quantile(sorted, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %g, %g, median %g; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %g, %g; want 1, 3", q1, q3)
	}
}

func TestWindowAndRoundMedian(t *testing.T) {
	const width = 100 * time.Millisecond
	var samples []sample
	// Windows 0..3 hold 10, 20, 30 and 4 calls of one decision each;
	// window 3 is disturbed. A call that completes in the partial tail
	// (after 400ms of a 450ms run) and a failed call are dropped.
	for w, n := range []int{10, 20, 30, 4} {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{
				end:       time.Duration(w)*width + time.Duration(i+1)*time.Millisecond,
				lat:       time.Duration(w+1) * time.Microsecond,
				decisions: 1,
			})
		}
	}
	samples = append(samples,
		sample{end: 420 * time.Millisecond, lat: time.Second, decisions: 1},
		sample{end: 50 * time.Millisecond, lat: time.Second, decisions: 1, failed: true})

	ws := windowStats(samples, width, 450*time.Millisecond)
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4", len(ws))
	}
	for w, n := range []int{10, 20, 30, 4} {
		if ws[w].calls != n || ws[w].perS != float64(n)*10 || ws[w].p50us != float64(w+1) {
			t.Errorf("window %d = %+v", w, ws[w])
		}
	}
	r := medianWindow(ws)
	if r.perS != 150 || r.p50us != 2.5 || r.windows != 4 {
		t.Errorf("median window = %+v, want 150/s, p50 2.5us over 4 windows", r)
	}
	if r.disturbedShare != 0.5 { // 40/s and 100/s are under 0.8 x 150/s
		t.Errorf("disturbed share = %g, want 0.5", r.disturbedShare)
	}
}

func TestQueryCycleIsAFunctionOfTheSeed(t *testing.T) {
	hosts := make([]string, 500)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d.example", i)
	}
	spec := cycleSpec{n: 4000, nonRosterShare: 0.2, unknownHostShare: 0.05}
	a, b := buildQueries(7, hosts, spec), buildQueries(7, hosts, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different cycles")
	}
	if reflect.DeepEqual(a, buildQueries(8, hosts, spec)) {
		t.Fatal("another seed gave the same cycle")
	}
	nonRoster, unknown := 0, 0
	for _, q := range a {
		if !slices.Contains(rosterAgents, q.Agent) {
			nonRoster++
		}
		if strings.HasSuffix(q.Host, ".invalid") {
			unknown++
		}
	}
	if s := float64(nonRoster) / 4000; s < 0.17 || s > 0.23 {
		t.Errorf("non-roster share %g, want about 0.20", s)
	}
	if s := float64(unknown) / 4000; s < 0.035 || s > 0.065 {
		t.Errorf("unknown-host share %g, want about 0.05", s)
	}
	// Zipf skews towards the first hosts; uniform does not.
	first := func(qs []policyd.Query) (n int) {
		for _, q := range qs {
			if q.Host == hosts[0] {
				n++
			}
		}
		return n
	}
	if z, u := first(buildQueries(7, hosts, cycleSpec{n: 4000, zipf: 1.1})), first(buildQueries(7, hosts, cycleSpec{n: 4000})); z < 10*max(u, 1) {
		t.Errorf("first host drawn %d times under zipf and %d uniformly", z, u)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 60, End: 70},
		{Name: "late", ID: 4, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "grandchild", ID: 5, Parent: 1, Start: 12, End: 20},
	}
	got := selfTimes(spans)
	// root: 100 - union(10..50, 60..70, 90..100) = 100 - 60; a: 20 - 8.
	if want := []int64{40, 12, 30, 10, 30, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	a, b := newTracer(time.Now(), 4), newTracer(time.Now(), 4)
	for _, tr := range []*tracer{a, b} {
		root := tr.begin("call", -1, 1)
		tr.end(tr.begin("layer", root, 1))
		tr.end(root)
	}
	a.merge(b)
	if len(a.spans) != 4 || a.spans[3].ID != 3 || a.spans[3].Parent != 2 || a.spans[2].Parent != -1 {
		t.Errorf("merged spans %+v", a.spans)
	}
	var off *tracer
	off.end(off.begin("nothing", -1, 0)) // a nil tracer records nothing and does not panic
}

func TestBudgetSharesSumToOne(t *testing.T) {
	d := func(p50 float64) dist { return dist{n: 1, p50: p50, p90: p50} }
	rows := budget(d(5), d(2), d(1), d(13), d(25), d(28))
	sum := 0.0
	for _, r := range rows {
		sum += r.Share
		if r.SelfUs < 0 {
			t.Errorf("%s: negative self time on monotone rungs", r.Layer)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if rows[3].SelfUs != 5 || rows[4].SelfUs != 12 || rows[5].SelfUs != 3 {
		t.Errorf("self times %+v", rows)
	}
}

func TestNormaliseRestatesInReferenceSeconds(t *testing.T) {
	// A machine at 0.8 of the reference speed did less work a second and
	// took longer over everything than the reference machine would have.
	r := &result{metrics: values{"work_per_s": 800, "call_p50_us": 50, "call_p90_us": 100, "setup_s": 2}}
	r.normalise(&speedometer{samples: []float64{0.7 * refTripsPerS, 0.8 * refTripsPerS, 0.9 * refTripsPerS}})
	want := values{"work_per_s": 1000, "call_p50_us": 40, "call_p90_us": 80, "setup_s": 1.6}
	for name, w := range want {
		if got := r.metrics[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, w)
		}
	}
	var raw float64
	for _, d := range r.diags {
		if d.name == "bench.raw_work_per_s" {
			raw = d.value
		}
	}
	if raw != 800 {
		t.Errorf("the measured value was not kept: %g", raw)
	}
	var none *speedometer
	none.sample() // a nil speedometer samples nothing and does not panic
}

func TestNamesFollowTheContract(t *testing.T) {
	nameGrammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameGrammar.MatchString(name) {
			t.Errorf("%s name %q is outside the grammar", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || m.Better != "higher" && m.Better != "lower" {
			t.Errorf("end-to-end %+v", m)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
		if !unit.MatchString(m.Unit) || m.Moves == "" || m.Better != "higher" && m.Better != "lower" {
			t.Errorf("per-layer %+v", m)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("too many or too few entries")
	}
}

// README.md names every workload and metric, and its per-layer table
// carries each metric's unit and Moves string as its own row: the table
// is checked against the code, not kept by hand beside it.
func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	names := workloadNames()
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !strings.Contains(readme, "`"+n+"`") {
			t.Errorf("README.md does not name %s", n)
		}
	}
	rows := strings.Split(readme, "\n")
	for _, m := range perLayer {
		head, tail := fmt.Sprintf("| `%s` | %s | ", m.Name, m.Unit), fmt.Sprintf(" | %s |", m.Moves)
		if !slices.ContainsFunc(rows, func(r string) bool { return strings.HasPrefix(r, head) && strings.HasSuffix(r, tail) }) {
			t.Errorf("README.md has no row %s...%s", head, tail)
		}
	}
}

func TestManifestIsTheFileAtTheRoot(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(want) {
		t.Error("BENCHMARK.json differs from bench -manifest; regenerate it")
	}
}

// A wrong decision must count as a failed operation: with the expected
// tables corrupted, the calls fail.
func TestWrongDecisionIsCounted(t *testing.T) {
	ctx := context.Background()
	sz := tinySizes()
	sz.callers = 1
	for _, name := range []string{wlFleetFrameMixed, wlFleetJSONReload} {
		e, err := setupServing(ctx, sz, 5, servingSpecs(sz)[name], false)
		if err != nil {
			t.Fatal(err)
		}
		run, err := e.measureServing(ctx, 50*time.Millisecond, nil, nil)
		if err != nil || run.failed != 0 || run.attempted == 0 {
			t.Fatalf("%s: clean run: %+v, %v", name, run, err)
		}
		for _, exp := range e.cyc.expected {
			for i := range exp {
				exp[i].Action = (exp[i].Action + 1) % (policyd.Block + 1)
			}
		}
		run, err = e.measureServing(ctx, 50*time.Millisecond, nil, nil)
		if err != nil || run.failed == 0 {
			t.Errorf("%s: a corrupted expectation went unnoticed: %+v, %v", name, run, err)
		}
		e.close()
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r, err := runWorkload(context.Background(), tinySizes(), w.Name, 3, 0.15, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d failed", r.failed, r.attempted)
			}
			for _, m := range endToEnd {
				if v, ok := r.metrics[m.Name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.Name, v)
				}
			}
		})
	}
}

func TestSmokeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	r, err := runTraced(context.Background(), tinySizes(), wlFleetFrameMixed, 3, 0.25, path)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("%d of %d failed", r.failed, r.attempted)
	}
	for _, m := range perLayer {
		if v, ok := r.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a number", m.Name, v)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
