package scenario

import "repro/internal/obs"

// Engine metrics. Month wall-clock is observed once per hot site-month
// (cold months are nanoseconds of column reads and are counted, not
// timed), so the histogram exposes where full-fidelity simulation
// actually burns time: slow site-months dominate the upper buckets. It
// times the month itself; starting and removing the site (once per
// pinned site) shows in the hot phase total.
var (
	mCrawlWaves = obs.NewCounter("scenario_crawl_waves_total",
		"Crawl waves run over real HTTP (one crawler visiting one hot site).")
	mMonthWallNS = obs.NewHistogram("scenario_month_wall_ns",
		"Real time per hot (full-fidelity) site-month, ns.")
	mRunWallNS = obs.NewHistogram("scenario_run_wall_ns",
		"Real time per scenario.RunTiered call, ns.")
)

// Phase time, one observation per RunTiered call: TierStats' PlanNS,
// HotNS, ColdNS (each summed over workers; plan also counts the serial
// seed derivation that precedes them) and MergeNS.
const phaseHelp = "Time per scenario.RunTiered call by engine phase, worker phases summed over workers, ns."

var (
	mPhasePlanNS  = obs.NewHistogram(`scenario_phase_wall_ns{phase="plan"}`, phaseHelp)
	mPhaseHotNS   = obs.NewHistogram(`scenario_phase_wall_ns{phase="hot"}`, phaseHelp)
	mPhaseColdNS  = obs.NewHistogram(`scenario_phase_wall_ns{phase="cold"}`, phaseHelp)
	mPhaseMergeNS = obs.NewHistogram(`scenario_phase_wall_ns{phase="merge"}`, phaseHelp)
)

// Tier metrics: the hot/cold site-month split and the wave cache's
// compile/replay economics, added once per RunTiered call from the
// merged TierStats.
var (
	mTierHotSiteMonths = obs.NewCounter("scenario_tier_hot_site_months_total",
		"Site-months simulated at full fidelity.")
	mTierColdSiteMonths = obs.NewCounter("scenario_tier_cold_site_months_total",
		"Site-months advanced on the compiled fast path.")
	mTierCompiledWaves = obs.NewCounter("scenario_tier_compiled_waves_total",
		"Wave cache misses executed for real on a scratch farm.")
	mTierReplayedWaves = obs.NewCounter("scenario_tier_replayed_waves_total",
		"Long-tail crawl waves answered from the wave cache.")
)
