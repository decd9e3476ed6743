package scenario

import (
	"context"
	"testing"
)

// planTestSpec mirrors the CI smoke world at reduced size.
func planTestSpec() Spec {
	return Spec{
		Name: "plan-test", Seed: 11, Sites: 10, Months: 6, Start: "2023-08",
		Adoption: AdoptionSpec{Source: SourceCorpusOther, Multiplier: 8, PerAgentShare: 0.5},
		Crawlers: []CrawlerSpec{
			{Token: "GPTBot", Behavior: "compliant"},
			{Token: "Bytespider", Behavior: "fetch-ignore", Cadence: 2},
		},
		Manager:          ManagerSpec{Uptake: 0.5},
		Blocking:         BlockingSpec{Share: 0.5, StartMonth: 2, RefreshMonthly: true},
		MaxPagesPerCrawl: 3,
	}
}

// TestSitePlansMatchEngine is the derivation's contract: SitePlans
// replays the engine's per-site RNG streams, so the plans must
// reproduce the engine's own monthly adoption/managed/blocker counts.
func TestSitePlansMatchEngine(t *testing.T) {
	spec := planTestSpec()
	plans, err := SitePlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != spec.Sites {
		t.Fatalf("got %d plans, want %d", len(plans), spec.Sites)
	}
	res, err := RunTiered(context.Background(), spec, TierOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for m, mm := range res.Months {
		adopted, managed, blockers := 0, 0, 0
		for _, p := range plans {
			if p.AdoptMonth >= 0 && p.AdoptMonth <= m {
				adopted++
				if p.Style == StyleManaged {
					managed++
				}
			}
			if p.Blocker && m >= spec.Blocking.StartMonth {
				blockers++
			}
		}
		if mm.AdoptedSites != adopted {
			t.Errorf("month %d: engine adopted %d, plans say %d", m, mm.AdoptedSites, adopted)
		}
		if mm.ManagedSites != managed {
			t.Errorf("month %d: engine managed %d, plans say %d", m, mm.ManagedSites, managed)
		}
		if mm.ActiveBlockers != blockers {
			t.Errorf("month %d: engine blockers %d, plans say %d", m, mm.ActiveBlockers, blockers)
		}
	}
}

// TestSitePlansMeasurementSource checks the §5.1 replay: every site
// adopts at month 0, alternating wildcard and per-agent measurement
// policies.
func TestSitePlansMeasurementSource(t *testing.T) {
	spec := planTestSpec()
	spec.Adoption = AdoptionSpec{Source: SourceMeasurement}
	plans, err := SitePlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p.AdoptMonth != 0 {
			t.Errorf("site %d: adopt month %d, want 0", i, p.AdoptMonth)
		}
		want := StyleWildcard
		if i%2 == 1 {
			want = StyleMeasurement
		}
		if p.Style != want {
			t.Errorf("site %d: style %q, want %q", i, p.Style, want)
		}
	}
}

// TestSitePlansNoneSource: no site ever adopts, but blocker draws still
// happen (same stream as the engine).
func TestSitePlansNoneSource(t *testing.T) {
	spec := planTestSpec()
	spec.Adoption = AdoptionSpec{Source: SourceNone}
	plans, err := SitePlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	anyBlocker := false
	for i, p := range plans {
		if p.AdoptMonth != -1 || p.Style != "" {
			t.Errorf("site %d: plan %+v, want never-adopts", i, p)
		}
		anyBlocker = anyBlocker || p.Blocker
	}
	if !anyBlocker {
		t.Error("no site drew a blocker at share 0.5")
	}
}
