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
	mHotGets = obs.NewCounter("scenario_hot_gets_total",
		"Requests the hot tier's crawl waves issued, as the site logged them; over scenario_crawl_waves_total it is GETs per wave.")
	mMonthWallNS = obs.NewHistogram("scenario_month_wall_ns",
		"Real time per hot (full-fidelity) site-month, ns.")
	mRunWallNS = obs.NewHistogram("scenario_run_wall_ns",
		"Real time per scenario.RunTiered call, ns.")
)

// Hot site-month budget, one observation per stage per hot site-month:
// publishing the month's policy and blocker, the crawl waves over live
// HTTP, absorbing the month's log window, and classifying the window's
// evidence into the month's counters. The four stages sum to
// scenario_month_wall_ns.
const hotStageHelp = "Real time per hot site-month by stage, ns."

var (
	mHotStagePublishNS  = obs.NewHistogram(`scenario_hot_stage_ns{stage="publish"}`, hotStageHelp)
	mHotStageCrawlNS    = obs.NewHistogram(`scenario_hot_stage_ns{stage="crawl"}`, hotStageHelp)
	mHotStageAbsorbNS   = obs.NewHistogram(`scenario_hot_stage_ns{stage="absorb"}`, hotStageHelp)
	mHotStageClassifyNS = obs.NewHistogram(`scenario_hot_stage_ns{stage="classify"}`, hotStageHelp)
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
