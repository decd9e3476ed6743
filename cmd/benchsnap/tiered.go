package main

// Scenario scale benchmarks: the observed world at 1k and 10k sites with
// a 32-site hot cohort. Both report sites_per_sec so the regression gate
// tracks throughput directly.

import (
	"context"
	"testing"

	"repro/internal/scenario"
)

// benchScenarioSites runs the observed-world spec at the given scale and
// reports throughput.
func benchScenarioSites(b *testing.B, sites int) {
	spec := scenario.Observed(snapSeed, sites, 12)
	var visits float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunTiered(context.Background(), spec,
			scenario.TierOptions{HotSites: 32, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		visits = float64(res.TotalVisits)
	}
	b.ReportMetric(visits, "crawl_visits")
	b.ReportMetric(float64(sites)*float64(b.N)/b.Elapsed().Seconds(), "sites_per_sec")
}

func init() {
	register("scenario_tiered_1k", func(b *testing.B) {
		benchScenarioSites(b, 1000)
	})
	register("scenario_tiered_10k", func(b *testing.B) {
		benchScenarioSites(b, 10000)
	})
}
