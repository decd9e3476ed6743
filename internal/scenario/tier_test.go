package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestTieredParityWithFull is the engine's core contract: for the same
// spec the Result is identical at every hot-cohort size — including
// zero, where the whole population runs on the compiled fast path — to
// the all-hot run, where every site-month is a live site, real crawlers
// and real HTTP; and at every worker count.
func TestTieredParityWithFull(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{99, 7} {
		spec := testSpec()
		spec.Seed = seed
		want, err := RunTiered(ctx, spec, TierOptions{HotSites: spec.Sites, Workers: 4})
		if err != nil {
			t.Fatalf("seed=%d: all-hot run: %v", seed, err)
		}
		for _, hot := range []int{0, 3} {
			for _, workers := range []int{1, 4, 8} {
				got, err := RunTiered(ctx, spec, TierOptions{HotSites: hot, Workers: workers})
				if err != nil {
					t.Fatalf("seed=%d hot=%d workers=%d: %v", seed, hot, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					gb, _ := json.MarshalIndent(got, "", " ")
					wb, _ := json.MarshalIndent(want, "", " ")
					t.Fatalf("seed=%d hot=%d workers=%d: diverges from all-hot:\n%s\nvs all-hot:\n%s",
						seed, hot, workers, gb, wb)
				}
			}
		}
	}
}

// TestTieredWorkerCountIdentity pins the serialization-level claim: the
// JSON bytes are identical at any worker count. Shard cuts round down
// to multiples of 64, so only the wide world actually splits — the
// test checks that it does, so a multi-shard merge is what is compared.
// At 100 pinned sites the cohort sits inside one shard at one and two
// workers and crosses the cut at 64 at three and eight, where shard 1 is
// part site-major (64–99) and part month-major; at 256 every shard is
// all site-major.
func TestTieredWorkerCountIdentity(t *testing.T) {
	wide := testSpec()
	wide.Sites = 256
	for _, workers := range []int{2, 3} {
		if shards := len(shardCuts(wide.Sites, workers)) - 1; shards != workers {
			t.Fatalf("%d sites, %d workers: %d shards", wide.Sites, workers, shards)
		}
	}
	for _, c := range []struct {
		spec Spec
		hot  int
	}{{testSpec(), 2}, {wide, 0}, {wide, 3}, {wide, 100}, {wide, 256}} {
		want := runJSON(t, c.spec, TierOptions{HotSites: c.hot, Workers: 1})
		for _, workers := range []int{2, 3, 8} {
			if got := runJSON(t, c.spec, TierOptions{HotSites: c.hot, Workers: workers}); string(got) != string(want) {
				t.Fatalf("sites=%d hot=%d: workers=%d differs from workers=1:\n%s\nvs\n%s",
					c.spec.Sites, c.hot, workers, got, want)
			}
		}
	}
}

// TestShardCuts: boundaries are 64-aligned, strictly increasing (no
// empty shard reaches newTierWorker) and cover every site.
func TestShardCuts(t *testing.T) {
	for _, c := range []struct {
		sites, workers int
		want           []int
	}{
		{10, 1, []int{0, 10}},
		{10, 8, []int{0, 10}},
		{40, 2, []int{0, 40}},
		{128, 2, []int{0, 64, 128}},
		{256, 3, []int{0, 64, 128, 256}},
		{1000, 4, []int{0, 192, 448, 704, 1000}},
	} {
		if got := shardCuts(c.sites, c.workers); !reflect.DeepEqual(got, c.want) {
			t.Errorf("shardCuts(%d, %d) = %v, want %v", c.sites, c.workers, got, c.want)
		}
	}
}

// TestTieredTransitionMonthsParityWithAllHot puts every tail site through
// both state transitions — adoption at month 1, refreshed blocking at
// month 4 for half of them — and checks the replayed months are
// byte-identical to an always-hot run, across seeds and worker counts,
// and that the tier split is the index rule and nothing else.
func TestTieredTransitionMonthsParityWithAllHot(t *testing.T) {
	spec := testSpec()
	spec.Sites = 6
	spec.Months = 8
	spec.Adoption = AdoptionSpec{Curve: []float64{0, 1}}
	spec.Blocking = BlockingSpec{Share: 0.5, StartMonth: 4, RefreshMonthly: true}

	for _, seed := range []int64{99, 7} {
		spec.Seed = seed
		want := runJSON(t, spec, TierOptions{HotSites: spec.Sites, Workers: 2})
		for _, hot := range []int{0, 3} {
			for _, workers := range []int{1, 4, 8} {
				var ts TierStats
				got := runJSON(t, spec, TierOptions{HotSites: hot, Workers: workers, Stats: &ts})
				pinned := min(hot, spec.Sites)
				if ts.HotSiteMonths != pinned*spec.Months || ts.ColdSiteMonths != (spec.Sites-pinned)*spec.Months {
					t.Fatalf("seed=%d hot=%d workers=%d: tier split is not by site index: %+v", seed, hot, workers, ts)
				}
				if string(got) != string(want) {
					t.Fatalf("seed=%d hot=%d workers=%d: diverges from always-hot run:\n%s\nvs\n%s",
						seed, hot, workers, got, want)
				}
			}
		}
	}
}

// TestTieredColumnarFootprint holds the long-tail representation to its
// budget: at fifty thousand sites the columnar state must stay at or
// under 8 bytes per site.
func TestTieredColumnarFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-site run")
	}
	ctx := context.Background()
	spec := Spec{
		Name:     "footprint",
		Seed:     3,
		Sites:    50000,
		Months:   2,
		Adoption: AdoptionSpec{Source: SourceNone},
		Crawlers: []CrawlerSpec{{Token: "GPTBot", Behavior: "compliant", Cadence: 1}},
	}
	var ts TierStats
	if _, err := RunTiered(ctx, spec, TierOptions{Workers: 2, Stats: &ts}); err != nil {
		t.Fatal(err)
	}
	if per := ts.BytesPerSite(spec.Sites); per > 8 {
		t.Fatalf("columnar state costs %.2f bytes/site (budget 8): %+v", per, ts)
	}
	if ts.ColdSiteMonths != spec.Sites*spec.Months {
		t.Fatalf("expected an all-cold run, got %+v", ts)
	}
}

// TestWaveIndexMatchesSchedule walks a grid of crawler schedules visit
// by visit and checks waveIndex derives the identical (visit, due)
// sequence from (spec, month) alone.
func TestWaveIndexMatchesSchedule(t *testing.T) {
	const months = 30
	for _, cs := range []CrawlerSpec{
		{FirstMonth: 0, LastMonth: months - 1, Cadence: 1},
		{FirstMonth: 0, LastMonth: months - 1, Cadence: 2},
		{FirstMonth: 5, LastMonth: months - 1, Cadence: 3},
		{FirstMonth: 5, LastMonth: 11, Cadence: 1},
		{FirstMonth: 2, LastMonth: months - 1, Cadence: 4, MaxVisits: 3},
		{FirstMonth: 0, LastMonth: 0, Cadence: 1},
		{FirstMonth: 29, LastMonth: 29, Cadence: 7},
	} {
		// Ground truth: visits at FirstMonth + k*Cadence
		// while within [FirstMonth, LastMonth] and under MaxVisits.
		want := make(map[int]int)
		for m, k := cs.FirstMonth, 0; m < months && m <= cs.LastMonth; m, k = m+cs.Cadence, k+1 {
			if cs.MaxVisits > 0 && k >= cs.MaxVisits {
				break
			}
			want[m] = k
		}
		for m := 0; m < months; m++ {
			k, due := waveIndex(cs, m)
			wantK, wantDue := want[m]
			if due != wantDue || (due && k != wantK) {
				t.Fatalf("%+v month %d: waveIndex = (%d,%v), schedule says (%d,%v)",
					cs, m, k, due, wantK, wantDue)
			}
		}
	}
}

// domainDigits counts without formatting; the domain it stands for is
// SiteDomain's, zero-padded to five digits.
func TestDomainDigitsMatchesSiteDomain(t *testing.T) {
	for _, i := range []int{0, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 123_456_789, 1<<63 - 1} {
		want := len(SiteDomain(i)) - len("site-.scenario.test")
		if got := int(domainDigits(i)); got != want {
			t.Errorf("domainDigits(%d) = %d, SiteDomain has %d", i, got, want)
		}
	}
}

// TestTieredRosterLimit documents the uint8 roster-key bound.
func TestTieredRosterLimit(t *testing.T) {
	spec := testSpec()
	spec.Crawlers = nil
	for i := 0; i < 256; i++ {
		spec.Crawlers = append(spec.Crawlers, CrawlerSpec{
			Token: fmt.Sprintf("Bot%d", i), Behavior: "compliant", Cadence: 1,
		})
	}
	if _, err := RunTiered(context.Background(), spec, TierOptions{}); err == nil {
		t.Fatal("256-entry roster accepted")
	}
}

// TestHotTierDialsOncePerSiteAndCrawler is the count gate on what the
// hot tier keeps: in an all-hot run every site is started once and each
// kept crawler holds one conn to it for all of its months, so the run
// dials at most sites × roster times (a crawler per wave dialed once
// per wave), and no request ever meets a dead pooled conn. The counters
// are process-wide: this test takes deltas and must not run in parallel
// with another.
func TestHotTierDialsOncePerSiteAndCrawler(t *testing.T) {
	if !obs.Enabled() {
		t.Skip("counts come from obs counters")
	}
	misses := obs.NewCounter(`netsim_http_pool_total{result="miss"}`, "")
	retries := obs.NewCounter("netsim_http_retries_total", "")
	spec := Observed(7, 128, 12)
	miss0, retry0, waves0 := misses.Value(), retries.Value(), mCrawlWaves.Value()
	var ts TierStats
	if _, err := RunTiered(context.Background(), spec, TierOptions{HotSites: spec.Sites, Workers: 2, Stats: &ts}); err != nil {
		t.Fatal(err)
	}
	dials, waves := misses.Value()-miss0, mCrawlWaves.Value()-waves0
	if ts.HotSiteMonths != spec.Sites*spec.Months {
		t.Fatalf("not an all-hot run: %+v", ts)
	}
	if limit := uint64(spec.Sites * len(spec.Crawlers)); dials == 0 || dials > limit {
		t.Errorf("%d dials for %d sites x %d crawlers (limit %d, %d waves)",
			dials, spec.Sites, len(spec.Crawlers), limit, waves)
	}
	if waves <= uint64(spec.Sites*len(spec.Crawlers)) {
		t.Errorf("%d waves cannot tell a dial per wave from a dial per site and crawler", waves)
	}
	if got := retries.Value() - retry0; got != 0 {
		t.Errorf("%d requests were replayed after finding a dead pooled conn", got)
	}
	if ts.PlanNS <= 0 || ts.HotNS <= 0 || ts.MergeNS <= 0 {
		t.Errorf("phase times missing: %+v", ts)
	}
	if ts.ColdNS < 0 {
		t.Errorf("cold phase time %d is negative", ts.ColdNS)
	}
}
