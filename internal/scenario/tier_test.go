package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
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
// JSON bytes are identical at any worker count. Workers claim pinned
// sites one at a time and cold sites in 64-site chunks, so hot sites of
// one bitset word run on different workers, next to a worker advancing
// the word's cold rest. The wide world's four chunks give each of 3
// workers one to claim even when no site is pinned (the guard below
// asserts it; which worker claims which is up to the scheduler, and
// nothing here checks it). At 100 pinned
// sites of 256 the cohort fills chunk 0 and ends inside chunk 1, whose
// cold rest (100–127) runs month-major; at 256 every site is pinned. The
// 100-site all-hot world has only two chunks, so workers 4 and 8 run
// more workers than chunks, and hot 65 of 130 puts a lone pinned site in
// a word with 63 cold ones.
func TestTieredWorkerCountIdentity(t *testing.T) {
	wide := testSpec()
	wide.Sites = 256
	if chunks := (wide.Sites + chunkSites - 1) / chunkSites; chunks <= 3 {
		t.Fatalf("%d sites make %d chunks: not more than 3 workers", wide.Sites, chunks)
	}
	hundred := testSpec()
	hundred.Sites = 100
	straddle := testSpec()
	straddle.Sites = 130
	for _, c := range []struct {
		spec Spec
		hot  int
	}{{testSpec(), 2}, {wide, 0}, {wide, 3}, {wide, 100}, {wide, 256}, {hundred, 100}, {straddle, 65}} {
		want := runJSON(t, c.spec, TierOptions{HotSites: c.hot, Workers: 1})
		for _, workers := range []int{2, 3, 4, 8} {
			if got := runJSON(t, c.spec, TierOptions{HotSites: c.hot, Workers: workers}); string(got) != string(want) {
				t.Fatalf("sites=%d hot=%d: workers=%d differs from workers=1:\n%s\nvs\n%s",
					c.spec.Sites, c.hot, workers, got, want)
			}
		}
	}
}

// TestTieredQueueClaims: the shared queue hands out every pinned site
// and every cold item exactly once, to one claimer or to racing ones,
// each claimer in one fixed order: the pinned sites, the first one first, spread
// evenly over the first half of the cold-only chunks — each gap between
// two of them is spread/hot cold items, rounded down or up, and the last
// is followed by cold work — or all first when there is no chunk to
// spread over.
func TestTieredQueueClaims(t *testing.T) {
	for _, c := range []struct{ sites, hot int }{
		{300, 300}, {100000, 21}, {400, 200}, {130, 65}, {256, 0}, {70, 64}, {1, 1}, {2000, 3},
	} {
		q := newTierQueue(c.sites, c.hot)
		var order []string
		cold, lastPinned := 0, -1
		for {
			pinned, i, ok := q.claim()
			if !ok {
				break
			}
			order = append(order, itemName(pinned, i))
			if !pinned {
				cold++
				continue
			}
			if i != lastPinned+1 {
				t.Errorf("sites=%d hot=%d: pinned site %d claimed after pinned site %d", c.sites, c.hot, i, lastPinned)
			}
			if gap := cold; i > 0 && (gap < q.spread/c.hot || gap > (q.spread+c.hot-1)/c.hot) {
				t.Errorf("sites=%d hot=%d: %d cold items before pinned site %d, spread %d", c.sites, c.hot, gap, i, q.spread)
			}
			lastPinned, cold = i, 0
		}
		if len(order) != q.items() || (c.hot > 0 && order[0] != "p0") {
			t.Errorf("sites=%d hot=%d: claim order %v, want %d items from p0", c.sites, c.hot, order, q.items())
		}
		if c.hot > 0 && q.spread > 0 && order[c.hot+q.spread-1][0] != 'c' {
			t.Errorf("sites=%d hot=%d: the last pinned site ends the spread, want cold work after it", c.sites, c.hot)
		}
		checkOnce(t, c.sites, c.hot, order)

		q = newTierQueue(c.sites, c.hot)
		claimed := make([][]string, 4)
		var wg sync.WaitGroup
		for g := range claimed {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					pinned, i, ok := q.claim()
					if !ok {
						return
					}
					claimed[g] = append(claimed[g], itemName(pinned, i))
				}
			}()
		}
		wg.Wait()
		checkOnce(t, c.sites, c.hot, slices.Concat(claimed...))
		pos := make(map[string]int, len(order))
		for k, it := range order {
			pos[it] = k
		}
		for g, got := range claimed {
			if !slices.IsSortedFunc(got, func(a, b string) int { return pos[a] - pos[b] }) {
				t.Errorf("sites=%d hot=%d: claimer %d took items out of the queue's order: %v", c.sites, c.hot, g, got)
			}
		}
	}
}

func itemName(pinned bool, i int) string {
	if pinned {
		return fmt.Sprint("p", i)
	}
	return fmt.Sprint("c", i)
}

// checkOnce requires order to hold each of the queue's items once.
func checkOnce(t *testing.T, sites, hot int, order []string) {
	t.Helper()
	q := newTierQueue(sites, hot)
	seen := make(map[string]bool)
	for _, it := range order {
		if seen[it] {
			t.Errorf("sites=%d hot=%d: item %s claimed twice", sites, hot, it)
		}
		seen[it] = true
	}
	for i := 0; i < q.hot; i++ {
		if !seen[itemName(true, i)] {
			t.Errorf("sites=%d hot=%d: pinned site %d never claimed", sites, hot, i)
		}
	}
	for i := 0; i < q.coldItems; i++ {
		if !seen[itemName(false, i)] {
			t.Errorf("sites=%d hot=%d: cold item %d never claimed", sites, hot, i)
		}
	}
	if len(seen) != q.items() {
		t.Errorf("sites=%d hot=%d: %d distinct items claimed, queue holds %d", sites, hot, len(seen), q.items())
	}
}

// TestTieredSiteLimitParity: SiteLimit cuts crawlers from a cold site by
// its index, which the cold tier's site-month classes must tell apart.
// The limits (5 and 70) fall inside the first two chunks, the last chunk
// is partial, and a hot cohort of 40 ends inside chunk 0; each run must
// equal the all-hot one and replay exactly the waves due on its cold
// sites.
func TestTieredSiteLimitParity(t *testing.T) {
	spec := testSpec()
	spec.Sites = 130
	spec.Crawlers[0].SiteLimit = 70
	spec.Crawlers[1].SiteLimit = 5
	want := runJSON(t, spec, TierOptions{HotSites: spec.Sites, Workers: 3})
	for _, hot := range []int{0, 40} {
		for _, workers := range []int{1, 3} {
			var ts TierStats
			got := runJSON(t, spec, TierOptions{HotSites: hot, Workers: workers, Stats: &ts})
			if string(got) != string(want) {
				t.Fatalf("hot=%d workers=%d: diverges from all-hot run:\n%s\nvs\n%s", hot, workers, got, want)
			}
			if due := dueColdWaves(spec, hot); ts.ReplayedWaves != due {
				t.Fatalf("hot=%d workers=%d: %d replayed waves, %d due on cold sites", hot, workers, ts.ReplayedWaves, due)
			}
		}
	}
}

// dueColdWaves counts the roster waves due on cold sites [hot, Sites)
// over the run, from waveIndex and SiteLimit alone.
func dueColdWaves(spec Spec, hot int) int {
	sp := spec.withDefaults()
	n := 0
	for i := min(hot, sp.Sites); i < sp.Sites; i++ {
		for m := 0; m < sp.Months; m++ {
			for _, cs := range sp.Crawlers {
				if cs.SiteLimit > 0 && i >= cs.SiteLimit {
					continue
				}
				if _, due := waveIndex(cs, m); due {
					n++
				}
			}
		}
	}
	return n
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
				if due := dueColdWaves(spec, hot); ts.ReplayedWaves != due {
					t.Fatalf("seed=%d hot=%d workers=%d: %d replayed waves, %d due on cold sites", seed, hot, workers, ts.ReplayedWaves, due)
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
		Adoption: AdoptionSpec{Source: sourceNone},
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
// siteDomain's, zero-padded to five digits.
func TestDomainDigitsMatchesSiteDomain(t *testing.T) {
	for _, i := range []int{0, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 123_456_789, 1<<63 - 1} {
		want := len(siteDomain(i)) - len("site-.scenario.test")
		if got := int(domainDigits(i)); got != want {
			t.Errorf("domainDigits(%d) = %d, SiteDomain has %d", i, got, want)
		}
	}
}

// TestTieredRosterLimit: Validate refuses a roster past the 255 entries
// a cold site-month's byte-wide limit bucket can count, so LoadSpec and
// RunTiered reject it before planning; 255 entries pass.
func TestTieredRosterLimit(t *testing.T) {
	spec := testSpec()
	spec.Crawlers = nil
	for i := 0; i < 256; i++ {
		spec.Crawlers = append(spec.Crawlers, CrawlerSpec{
			Token: fmt.Sprintf("Bot%d", i), Behavior: "compliant", Cadence: 1,
		})
	}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "at most 255 roster entries") {
		t.Fatalf("Validate of a 256-entry roster = %v, want the roster bound", err)
	}
	if _, err := RunTiered(context.Background(), spec, TierOptions{}); err == nil {
		t.Fatal("RunTiered accepted a 256-entry roster")
	}
	spec.Crawlers = spec.Crawlers[:255]
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate of a 255-entry roster: %v", err)
	}
}

// TestAllHotRunSendsRequestsAndTimesPhases: an all-hot run sends its
// crawlers' requests through the netsim client and times every phase.
// (A farm is bound as a handler, which refuses dials:
// webserver.TestFarmAddressesRefuseDials.) The request counter is
// process-wide: this test takes a delta and must not run in parallel
// with another.
func TestAllHotRunSendsRequestsAndTimesPhases(t *testing.T) {
	requests := obs.NewCounter("netsim_http_requests_total", "")
	spec := Observed(7, 128, 12)
	req0 := requests.Value()
	var ts TierStats
	if _, err := RunTiered(context.Background(), spec, TierOptions{HotSites: spec.Sites, Workers: 2, Stats: &ts}); err != nil {
		t.Fatal(err)
	}
	if ts.HotSiteMonths != spec.Sites*spec.Months {
		t.Fatalf("not an all-hot run: %+v", ts)
	}
	if got := requests.Value() - req0; got == 0 {
		t.Fatal("the all-hot run sent no request")
	}
	if ts.PlanNS <= 0 || ts.HotNS <= 0 || ts.MergeNS <= 0 {
		t.Errorf("phase times missing: %+v", ts)
	}
	if ts.ColdNS < 0 {
		t.Errorf("cold phase time %d is negative", ts.ColdNS)
	}
}
