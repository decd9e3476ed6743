package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"repro/internal/measure"
)

// testSpec is a small world exercising every engine feature: calibrated
// adoption, managed uptake, a blocking rollout with monthly refreshes,
// and a mid-run rogue arrival.
func testSpec() Spec {
	return Spec{
		Name:   "engine-test",
		Seed:   99,
		Sites:  10,
		Months: 10,
		Adoption: AdoptionSpec{
			Source:     SourceCorpusOther,
			Multiplier: 6,
		},
		Manager:  ManagerSpec{Uptake: 0.5},
		Blocking: BlockingSpec{Share: 0.5, StartMonth: 3, RefreshMonthly: true},
		Crawlers: []CrawlerSpec{
			{Token: "GPTBot", Behavior: "compliant", Cadence: 1},
			{Token: "Bytespider", Behavior: "fetch-ignore", Cadence: 2},
			{Token: "Scrapezilla", Behavior: "no-fetch", Cadence: 1, FirstMonth: 5},
		},
		MaxPagesPerCrawl: 4,
	}
}

// runJSON runs spec and returns the marshalled Result. The Result holds
// no floats and json.Marshal sorts map keys, so equal bytes mean equal
// results.
func runJSON(t *testing.T, spec Spec, opts TierOptions) []byte {
	t.Helper()
	res, err := RunTiered(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("%s hot=%d workers=%d: %v", spec.Name, opts.HotSites, opts.Workers, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerParity runs every site-month at full fidelity — real HTTP
// on each worker's private network — at several worker counts.
func TestWorkerParity(t *testing.T) {
	spec := testSpec()
	want := runJSON(t, spec, TierOptions{HotSites: spec.Sites, Workers: 1})
	for _, workers := range []int{4, 8} {
		if got := runJSON(t, spec, TierOptions{HotSites: spec.Sites, Workers: workers}); string(got) != string(want) {
			t.Fatalf("results differ between worker counts:\n%s\nvs\n%s", want, got)
		}
	}
}

func TestBaselineReplayMatchesMeasure(t *testing.T) {
	ctx := context.Background()
	seed := int64(20251028)
	sim, err := RunTiered(ctx, Baseline(seed), TierOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	passive, err := measure.RunPassive(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Verdicts) != len(passive.Verdicts) {
		t.Fatalf("simulated %d crawlers (%v), measured %d (%v)",
			len(sim.Verdicts), sim.Tokens(), len(passive.Verdicts), passive.Visitors)
	}
	for tok, want := range passive.Verdicts {
		if got, ok := sim.Verdicts[tok]; !ok || got != want {
			t.Errorf("%s: scenario verdict = %v, measured = %v", tok, got, want)
		}
	}
}

func TestRogueCrawlerEvadesBlocklists(t *testing.T) {
	ctx := context.Background()
	spec := RogueCrawler(7, 16, 24)
	spec.Adoption.Multiplier = 6      // enough adopters at this tiny scale
	spec.Adoption.PerAgentShare = 0.4 // ensure some blanket-wildcard adopters
	res, err := RunTiered(ctx, spec, TierOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Verdicts["Scrapezilla"]; v != measure.NotFetched {
		t.Errorf("rogue verdict = %v, want %v", v, measure.NotFetched)
	}
	// The rogue joins at months/2; no no-fetch windows can precede its
	// arrival (the rest of the fleet requests robots.txt), and some must
	// follow on adopted sites.
	var before, after int
	for _, m := range res.Months {
		ev := m.ClassCounts[measure.NotFetched] + m.ClassCounts[measure.Anomalous]
		if m.Month < 12 {
			before += ev
		} else {
			after += ev
		}
	}
	if before != 0 {
		t.Errorf("no-fetch windows before the rogue joined: %d", before)
	}
	if after == 0 {
		t.Error("rogue never produced a no-fetch classification window")
	}
	// Announced crawlers are blocked on blocking sites, so some requests
	// must have been denied; the rogue is not on any rule list.
	total := 0
	for _, m := range res.Months {
		total += m.BlockedRequests
	}
	if total == 0 {
		t.Error("blocking rollout never denied a request")
	}
}

func TestManagedUptakeClosesCoverageGap(t *testing.T) {
	ctx := context.Background()
	gapAt := func(uptake float64) float64 {
		spec := ManagedUptake(11, 12, 24, uptake)
		spec.Adoption.Multiplier = 6
		res, err := RunTiered(ctx, spec, TierOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Months[len(res.Months)-1].StaticGap()
	}
	none := gapAt(0)
	full := gapAt(1)
	if none <= 0 {
		t.Errorf("hand-maintained world has no coverage gap (%.3f); announcements should outrun frozen lists", none)
	}
	if full != 0 {
		t.Errorf("fully managed world still has a gap: %.3f", full)
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, hot := range []int{0, testSpec().Sites} {
		if _, err := RunTiered(ctx, testSpec(), TierOptions{HotSites: hot, Workers: 2}); !errors.Is(err, context.Canceled) {
			t.Fatalf("hot=%d: err = %v, want context.Canceled", hot, err)
		}
	}

	// Cancelled from outside while the pinned cohort's site-major loop is
	// under way: the run must stop there, not finish the cohort first.
	spec := Observed(7, 128, 12)
	total := uint64(spec.Sites * spec.Months)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	hotMonths := func() uint64 { return mMonthWallNS.Snapshot().Count } // live; the tier counters move at end of run
	before := hotMonths()
	done := make(chan error, 1)
	go func() {
		_, err := RunTiered(ctx, spec, TierOptions{HotSites: spec.Sites, Workers: 1})
		done <- err
	}()
	for hotMonths()-before < 12 {
		select {
		case err := <-done:
			t.Fatalf("run ended before it could be cancelled: %v", err)
		default:
			runtime.Gosched()
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran := hotMonths() - before; ran >= total/2 {
		t.Fatalf("cancelled after 12 of %d hot site-months, yet %d ran", total, ran)
	}
}

func TestSpecValidation(t *testing.T) {
	base := testSpec()
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Sites = 0 },
		func(s *Spec) { s.Sites = maxSites + 1 },
		func(s *Spec) { s.Months = 0 },
		func(s *Spec) { s.Months = maxMonths + 1 },
		func(s *Spec) { s.Start = "yesterday" },
		func(s *Spec) { s.Crawlers = nil },
		func(s *Spec) { s.Crawlers[0].Token = "" },
		func(s *Spec) { s.Crawlers[0].Behavior = "polite" },
		func(s *Spec) { s.Crawlers[0].Cadence = -1 },
		func(s *Spec) { s.Crawlers[0].FirstMonth = 5; s.Crawlers[0].LastMonth = 3 },
		func(s *Spec) { s.Crawlers[0].FirstMonth = s.Months },
		func(s *Spec) { s.Blocking = BlockingSpec{Share: 0.5, StartMonth: s.Months} },
		func(s *Spec) { s.Adoption.Source = "martian" },
		func(s *Spec) { s.Adoption.Source = sourceNone; s.Adoption.Curve = []float64{0.2} },
		func(s *Spec) { s.Adoption.Curve = []float64{0.5, 0.2} },
		func(s *Spec) { s.Adoption.Curve = []float64{1.5} },
		func(s *Spec) { s.Manager.Uptake = 1.5 },
		func(s *Spec) { s.Blocking.Share = -0.1 },
		func(s *Spec) { s.Blocking.StartMonth = -2 },
	}
	for i, mutate := range bad {
		s := base
		s.Crawlers = append([]CrawlerSpec(nil), base.Crawlers...)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: invalid spec passed validation", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	want := testSpec()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheKey() != want.CacheKey() {
		t.Fatalf("round trip changed the spec:\n%s\nvs\n%s", got.CacheKey(), want.CacheKey())
	}
	// Unknown fields are typos in counterfactual knobs; reject them.
	if _, err := parseSpec([]byte(`{"name":"x","sites":1,"months":1,"crawler":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestBuiltins(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Builtins() {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate builtin name %s", s.Name)
		}
		seen[s.Name] = true
		if got, ok := BuiltinByName(s.Name); !ok || got.Name != s.Name {
			t.Errorf("BuiltinByName(%s) missing", s.Name)
		}
	}
	if _, ok := BuiltinByName("no-such-world"); ok {
		t.Error("unknown builtin resolved")
	}
}

func TestMonthlyCurve(t *testing.T) {
	s := Spec{
		Name: "c", Sites: 1, Months: 26, Start: "2022-10",
		Adoption: AdoptionSpec{Source: SourceCorpusOther},
		Crawlers: []CrawlerSpec{{Token: "GPTBot"}},
	}
	curve := s.withDefaults().monthlyCurve()
	prev := 0.0
	for m, v := range curve {
		if v < prev {
			t.Fatalf("curve decreases at month %d", m)
		}
		prev = v
	}
	if curve[0] <= 0 || curve[len(curve)-1] <= curve[0] {
		t.Fatalf("corpus resample looks wrong: %v", curve)
	}
	// The multiplier scales but saturates.
	s.Adoption.Multiplier = 1000
	for m, v := range s.withDefaults().monthlyCurve() {
		if v > 0.98 {
			t.Fatalf("month %d exceeds the saturation cap: %v", m, v)
		}
	}
	// Explicit curves hold their last value.
	s.Adoption.Multiplier = 0
	s.Adoption.Curve = []float64{0.1, 0.4}
	curve = s.withDefaults().monthlyCurve()
	if curve[0] != 0.1 || curve[1] != 0.4 || curve[25] != 0.4 {
		t.Fatalf("explicit curve misresampled: %v", curve)
	}
}
