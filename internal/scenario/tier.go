package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/webserver"
)

// RunTiered executes the scenario and returns its monthly metrics and
// log-derived verdicts. Sites advance in two tiers: a hot cohort
// simulated at full fidelity (live farm-hosted webservers, real crawler
// instances, real netsim HTTP, a flush from the real request log) and a
// long tail advanced on the compiled fast path (columnar state + the
// wave cache), with deterministic promotion and demotion between tiers.
//
// The output contract is strict: the entire Result is bit-identical at
// any HotSites value and any worker count — HotSites is a cost/fidelity
// dial, never an output knob. That holds because the wave cache
// memoizes real execution keyed on everything a wave can observe,
// monthly flushes are order-free integer folds, and per-site randomness
// comes from seeds derived sequentially before sharding. The parity
// suite holds hot=0 to the all-hot run of the same code.
//
// Each worker owns one static contiguous site range and advances it
// month-major. Policy transitions and crawl waves are computed from
// (site, month) on the fly rather than scheduled, so month advancement
// is embarrassingly parallel with no cross-worker barrier.
func RunTiered(ctx context.Context, spec Spec, opts TierOptions) (*Result, error) {
	if obs.Enabled() {
		defer mRunWallNS.ObserveSince(time.Now())
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sp := spec.withDefaults()
	roster, err := resolveRoster(sp)
	if err != nil {
		return nil, err
	}
	if len(roster) > 255 {
		return nil, fmt.Errorf("scenario %s: at most 255 roster entries are supported", sp.Name)
	}
	start := sp.startDate()
	curve := sp.monthlyCurve()
	world := newTierWorld(sp, roster, start)

	hot := opts.HotSites
	if hot < 0 {
		hot = 0
	}
	if hot > sp.Sites {
		hot = sp.Sites
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > sp.Sites {
		workers = sp.Sites
	}

	seeds := siteSeeds(sp)
	tail := newTailState(sp.Sites)
	cache := &waveCache{m: make(map[waveKey]waveEffect)}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	cuts := shardCuts(sp.Sites, workers)
	ws := make([]*tierWorker, len(cuts)-1)
	for wi := range ws {
		w, err := newTierWorker(world, tail, cache, curve, hot,
			cuts[wi], cuts[wi+1])
		if err != nil {
			for _, prev := range ws[:wi] {
				prev.close()
			}
			return nil, err
		}
		ws[wi] = w
	}
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for _, w := range ws {
		wg.Add(1)
		go func(w *tierWorker) {
			defer wg.Done()
			defer w.close()
			if err := w.run(runCtx, seeds); err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Merge worker accumulators in shard order; all integer adds, so the
	// result is independent of scheduling and worker count.
	res := newResult(sp, start)
	evidence := make(map[string]measure.Evidence)
	var ts TierStats
	for _, w := range ws {
		for m := range w.months {
			res.Months[m].add(w.months[m])
		}
		for tok, ev := range w.evidence {
			evidence[tok] = evidence[tok].Merge(ev)
		}
		ts.HotSiteMonths += w.stats.HotSiteMonths
		ts.ColdSiteMonths += w.stats.ColdSiteMonths
		ts.Promotions += w.stats.Promotions
		ts.Demotions += w.stats.Demotions
		ts.CompiledWaves += w.stats.CompiledWaves
		ts.ReplayedWaves += w.stats.ReplayedWaves
	}
	res.finalize(evidence, opts.Observer)

	if opts.Stats != nil {
		ts.DistinctPolicies = len(world.policies) - 1
		ts.DistinctBlockers = len(world.blockers) - 1
		ts.WaveClasses = len(cache.m)
		ts.ColumnarBytes = tail.bytes()
		*opts.Stats = ts
	}
	return res, nil
}

// shardCuts splits [0, sites) into at most workers contiguous non-empty
// ranges and returns their boundaries. Interior boundaries are rounded
// down to 64-site multiples so the columnar bitsets partition cleanly:
// no two workers ever touch the same word, so the arrays need no locks
// (and no atomics). Ranges the rounding empties are dropped — below
// 64·workers sites there are fewer shards than workers — so no worker
// builds a network, a farm and a wave compiler for nothing.
func shardCuts(sites, workers int) []int {
	cuts := []int{0}
	for wi := 1; wi < workers; wi++ {
		if c := (wi * sites / workers) &^ 63; c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return append(cuts, sites)
}

// TierOptions configures RunTiered.
type TierOptions struct {
	// HotSites pins the first k sites to full-fidelity simulation for
	// the whole run (the hot cohort). Long-tail sites are still promoted
	// for their state-transition months. 0 means no pinned cohort.
	HotSites int
	// Workers is the most static site shards the run splits into (see
	// shardCuts), each advanced by its own goroutine; 0 means
	// GOMAXPROCS. The result does not depend on it.
	Workers int
	// Stats, when non-nil, receives the run's tier accounting.
	Stats *TierStats
	// Observer, when non-nil, receives the merged months and finished
	// result from the finalize path.
	Observer Observer
}

// TierStats reports how a run split its work across the tiers.
// Site-month and promotion counts are deterministic; the
// compiled/replayed split can shift between runs when workers race to
// compile the same wave class.
type TierStats struct {
	HotSiteMonths  int // site-months at full fidelity
	ColdSiteMonths int // site-months on the compiled fast path
	Promotions     int // cold→hot transitions after month 0
	Demotions      int // hot→cold transitions

	CompiledWaves    int // cache misses executed for real
	ReplayedWaves    int // tail waves answered from the cache
	WaveClasses      int // distinct wave situations encountered
	DistinctPolicies int // interned robots.txt policies
	DistinctBlockers int // interned provider rule lists

	ColumnarBytes int // steady-state long-tail state footprint
}

// BytesPerSite is the columnar footprint per site.
func (s TierStats) BytesPerSite(sites int) float64 {
	if sites == 0 {
		return 0
	}
	return float64(s.ColumnarBytes) / float64(sites)
}

// tierWorker advances one contiguous site range through every month. It
// owns a live farm for hot site-months, a scratch compiler for wave
// cache misses, and per-worker accumulators merged after the join.
type tierWorker struct {
	world    *tierWorld
	tail     *tailState
	cache    *waveCache
	local    map[waveKey]waveEffect // lock-free L1 over cache
	curve    []float64
	hotSites int
	lo, hi   int

	compiler *waveCompiler
	hotNW    *netsim.Network
	hotFarm  *webserver.Farm

	months    []MonthMetrics
	evidence  map[string]measure.Evidence
	evScratch []measure.Evidence // per-site-month, indexed by token id
	touched   []int32
	stats     TierStats
}

func newTierWorker(world *tierWorld, tail *tailState, cache *waveCache,
	curve []float64, hotSites, lo, hi int) (*tierWorker, error) {
	compiler, err := newWaveCompiler(world)
	if err != nil {
		return nil, err
	}
	hotNW := netsim.New()
	hotFarm, err := webserver.NewFarm(hotNW, siteIP)
	if err != nil {
		compiler.close()
		return nil, err
	}
	return &tierWorker{
		world:     world,
		tail:      tail,
		cache:     cache,
		local:     make(map[waveKey]waveEffect),
		curve:     curve,
		hotSites:  hotSites,
		lo:        lo,
		hi:        hi,
		compiler:  compiler,
		hotNW:     hotNW,
		hotFarm:   hotFarm,
		months:    make([]MonthMetrics, world.sp.Months),
		evidence:  make(map[string]measure.Evidence),
		evScratch: make([]measure.Evidence, len(world.tokens)),
	}, nil
}

func (w *tierWorker) close() {
	w.compiler.close()
	w.hotFarm.Close()
}

// run plans the shard's sites, then advances them month-major: the
// columnar arrays are walked sequentially per month, so the common
// (cold) case is a cache-friendly linear scan.
func (w *tierWorker) run(ctx context.Context, seeds []int64) error {
	for i := w.lo; i < w.hi; i++ {
		w.world.planSite(w.tail, i, seeds[i], w.curve)
	}
	for m := 0; m < w.world.sp.Months; m++ {
		for i := w.lo; i < w.hi; i++ {
			if i&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := w.advance(ctx, i, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// hotFor decides site i's tier for month m. The pinned cohort stays
// hot; a long-tail site is promoted for exactly the months where its
// observable state transitions originate — its adoption month and the
// blocking provider's rollout month — and demoted after. The rule reads
// only site-local columnar state, so tier decisions never serialize
// workers; and because the fast path is exact, the choice affects cost,
// never output.
func (w *tierWorker) hotFor(i, m int) bool {
	if i < w.hotSites {
		return true
	}
	if int(w.tail.adoptMonth[i]) == m {
		return true
	}
	return w.tail.blocker.get(i) && m == w.world.sp.Blocking.StartMonth
}

func (w *tierWorker) advance(ctx context.Context, i, m int) error {
	hot := w.hotFor(i, m)
	if wasHot := w.tail.hot.get(i); hot != wasHot {
		if hot {
			w.tail.hot.set(i)
			if m > 0 {
				w.stats.Promotions++
				mTierPromotions.Inc()
			}
		} else {
			w.tail.hot.clear(i)
			w.stats.Demotions++
			mTierDemotions.Inc()
		}
	}
	if hot {
		w.stats.HotSiteMonths++
		mTierHotSiteMonths.Inc()
		return w.runHotMonth(ctx, i, m)
	}
	w.stats.ColdSiteMonths++
	mTierColdSiteMonths.Inc()
	return w.runColdMonth(ctx, i, m)
}

// applyMonthState applies month m's policy and blocker events to site
// i's columnar state: policy changes land before the blocking toggle,
// and crawl waves always run after both, so the post-event state is the
// state every wave observes and the month-end flush records.
func (w *tierWorker) applyMonthState(i, m int) {
	t, world := w.tail, w.world
	if int(t.adoptMonth[i]) == m {
		t.adopted.set(i)
		switch {
		case !t.perAgent.get(i):
			t.policyID[i] = world.wildcardID
		case world.sp.Adoption.Source == SourceMeasurement:
			t.policyID[i] = world.measurementID
			t.frozen[i] = world.measurementFrozen
		case t.managed.get(i):
			t.policyID[i] = world.managedID[m]
		default:
			t.policyID[i] = world.frozenID[m]
			t.frozen[i] = world.frozenCount[m]
		}
	} else if t.adopted.get(i) && t.managed.get(i) && m > int(t.adoptMonth[i]) {
		t.policyID[i] = world.managedID[m]
	}
	if t.blocker.get(i) && m >= world.sp.Blocking.StartMonth {
		t.blockerOn.set(i)
	}
}

// effect resolves one wave situation: worker-local L1, then the shared
// cache, then a real compile on the scratch farm.
func (w *tierWorker) effect(ctx context.Context, key waveKey) (waveEffect, error) {
	if eff, ok := w.local[key]; ok {
		return eff, nil
	}
	eff, ok := w.cache.get(key)
	if !ok {
		compiled, err := w.compiler.compile(ctx, key)
		if err != nil {
			return waveEffect{}, err
		}
		eff = w.cache.put(key, compiled)
		w.stats.CompiledWaves++
	}
	w.local[key] = eff
	return eff, nil
}

// runColdMonth advances one long-tail site-month: O(roster) columnar
// reads, cached wave effects, and an integer flush — no HTTP, no
// allocation beyond first-touch scratch growth.
func (w *tierWorker) runColdMonth(ctx context.Context, i, m int) error {
	w.applyMonthState(i, m)
	t, world := w.tail, w.world
	var d MonthMetrics

	pid := t.policyID[i]
	bid := uint16(0)
	if t.blockerOn.get(i) {
		bid = world.activeBlockerID(m)
	}
	dg := domainDigits(i)
	for r := range world.roster {
		rc := &world.roster[r]
		if rc.spec.SiteLimit > 0 && i >= rc.spec.SiteLimit {
			continue
		}
		k, due := waveIndex(rc.spec, m)
		if !due {
			continue
		}
		eff, err := w.effect(ctx, waveKey{
			roster:  uint8(r),
			phase:   wavePhase(rc.behavior, k),
			policy:  pid,
			blocker: bid,
			digits:  dg,
		})
		if err != nil {
			return err
		}
		w.stats.ReplayedWaves++
		mTierReplayedWaves.Inc()
		d.Visits++
		t.waves[i]++
		d.RobotsFetches += int(eff.robotsFetches)
		d.BlockedRequests += int(eff.blockedRequests)
		d.DisallowedBytes += eff.disallowedBytes
		d.AllowedBytes += eff.allowedBytes
		if eff.token >= 0 {
			if w.evScratch[eff.token] == (measure.Evidence{}) {
				w.touched = append(w.touched, eff.token)
			}
			w.evScratch[eff.token] = w.evScratch[eff.token].Merge(eff.ev)
		}
	}
	// Flush-equivalent: classify this site-month's per-token evidence
	// (windowEv entries are never zero, so touched is exact) and fold the
	// policy-state counters from columnar state.
	for _, tk := range w.touched {
		ev := w.evScratch[tk]
		d.ClassCounts[measure.ClassifyEvidence(ev)]++
		tok := world.tokens[tk]
		w.evidence[tok] = w.evidence[tok].Merge(ev)
		w.evScratch[tk] = measure.Evidence{}
	}
	w.touched = w.touched[:0]
	w.monthStateCounters(i, m, &d)
	w.months[m].add(d)
	return nil
}

// runHotMonth simulates one site-month at full fidelity: a live
// farm-hosted site reconstructed from columnar state, real crawler
// instances advanced to their schedule position, real netsim HTTP, and
// a flush from the real request log. Hot hosting is stateless across
// months — the site is started and removed per month, since its entire
// observable state (policy body, blocker list, crawler visit phase) is
// derivable from the columns.
func (w *tierWorker) runHotMonth(ctx context.Context, i, m int) error {
	if obs.Enabled() {
		defer mMonthWallNS.ObserveSince(time.Now())
	}
	t, world := w.tail, w.world
	w.applyMonthState(i, m)

	domain := SiteDomain(i)
	site, err := w.hotFarm.StartSite(webserver.Config{
		Domain: domain,
		IP:     siteIP,
		Pages:  webserver.ContentPages(domain),
	})
	if err != nil {
		return err
	}
	defer site.Close()
	if pid := t.policyID[i]; pid != 0 {
		body := world.policies[pid].body
		site.SetRobots(&body)
	}
	if t.blockerOn.get(i) {
		site.SetBlocker(world.blockers[world.activeBlockerID(m)].blocker)
	}

	var d MonthMetrics
	for r := range world.roster {
		rc := &world.roster[r]
		if rc.spec.SiteLimit > 0 && i >= rc.spec.SiteLimit {
			continue
		}
		k, due := waveIndex(rc.spec, m)
		if !due {
			continue
		}
		cr, err := crawler.New(w.hotNW, crawler.Profile{
			Token:    rc.spec.Token,
			SourceIP: rc.sourceIP,
			Behavior: rc.behavior,
			MaxPages: world.sp.MaxPagesPerCrawl,
		})
		if err != nil {
			return err
		}
		cr.AdvanceVisits(k)
		if rc.spec.SinglePage {
			if _, _, err := cr.FetchOne(ctx, site.URL()+"/about.html"); err != nil {
				return err
			}
		} else if _, err := cr.Crawl(ctx, site.URL()); err != nil {
			return err
		}
		mCrawlWaves.Inc()
		d.Visits++
		t.waves[i]++
	}

	restricts, parsed := world.restrictsFunc(t.policyID[i])
	windowEv := make(map[string]measure.Evidence)
	absorbWindow(site.Log(), parsed, restricts, &d, windowEv)
	for tok, ev := range windowEv {
		d.ClassCounts[measure.ClassifyEvidence(ev)]++
		w.evidence[tok] = w.evidence[tok].Merge(ev)
	}
	w.monthStateCounters(i, m, &d)
	w.months[m].add(d)
	return nil
}

// monthStateCounters records the month-end policy-state tallies for
// site i from columnar state: adoption, managed and blocker counts and
// the rule-list coverage gap.
func (w *tierWorker) monthStateCounters(i, m int, d *MonthMetrics) {
	t, world := w.tail, w.world
	if t.adopted.get(i) {
		d.AdoptedSites++
		if t.managed.get(i) {
			d.ManagedSites++
		}
		announced := world.announced[m]
		covered := announced // wildcard and managed lists track everything
		if t.perAgent.get(i) && !t.managed.get(i) {
			covered = int(t.frozen[i])
			if covered > announced {
				covered = announced
			}
		}
		if announced > 0 {
			d.GapMissing += announced - covered
			d.GapAnnounced += announced
		}
		d.GapSites++
	}
	if t.blockerOn.get(i) {
		d.ActiveBlockers++
	}
}
