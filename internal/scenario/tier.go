package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/webserver"
)

// RunTiered executes the scenario and returns its monthly metrics and
// log-derived verdicts. Sites advance in two tiers: a hot cohort
// simulated at full fidelity (live farm-hosted webservers, real crawler
// instances, real netsim HTTP, a flush from the real request log) and a
// long tail advanced on the compiled fast path (columnar state + the
// wave cache). A site's tier is its index: the first HotSites sites are
// hot for every month, every other site is cold for every month.
//
// The output contract is strict: the entire Result is bit-identical at
// any HotSites value and any worker count — HotSites is a cost/fidelity
// dial, never an output knob. That holds because the wave cache
// memoizes real execution keyed on everything a wave can observe,
// monthly flushes are order-free integer folds, and per-site randomness
// comes from seeds derived sequentially before sharding. The parity
// suite holds hot=0 to the all-hot run of the same code.
//
// Each worker owns one static contiguous site range. Policy transitions
// and crawl waves are computed from (site, month) on the fly rather than
// scheduled, so advancement is embarrassingly parallel with no
// cross-worker barrier — and, within a worker, free to go site by site
// for the pinned cohort and month by month for the tail (see run).
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

	seedStart := time.Now()
	seeds := siteSeeds(sp)
	seedNS := int64(time.Since(seedStart))
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
				prev.compiler.close()
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
			defer w.compiler.close()
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
	mergeStart := time.Now()
	res := newResult(sp, start)
	evidence := make(map[string]measure.Evidence)
	ts := TierStats{PlanNS: seedNS}
	for _, w := range ws {
		for m := range w.months {
			res.Months[m].add(w.months[m])
		}
		for tok, ev := range w.evidence {
			evidence[tok] = evidence[tok].Merge(ev)
		}
		ts.HotSiteMonths += w.stats.HotSiteMonths
		ts.ColdSiteMonths += w.stats.ColdSiteMonths
		ts.CompiledWaves += w.stats.CompiledWaves
		ts.ReplayedWaves += w.stats.ReplayedWaves
		ts.PlanNS += w.stats.PlanNS
		ts.HotNS += w.stats.HotNS
		ts.ColdNS += w.stats.ColdNS
	}
	res.finalize(evidence, opts.Observer)
	ts.MergeNS = int64(time.Since(mergeStart))
	if obs.Enabled() {
		mPhasePlanNS.Observe(uint64(ts.PlanNS))
		mPhaseHotNS.Observe(uint64(ts.HotNS))
		mPhaseColdNS.Observe(uint64(ts.ColdNS))
		mPhaseMergeNS.Observe(uint64(ts.MergeNS))
		mTierHotSiteMonths.Add(uint64(ts.HotSiteMonths))
		mTierColdSiteMonths.Add(uint64(ts.ColdSiteMonths))
		mTierCompiledWaves.Add(uint64(ts.CompiledWaves))
		mTierReplayedWaves.Add(uint64(ts.ReplayedWaves))
	}

	if opts.Stats != nil {
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
// builds a network, a farm and a wave compiler for nothing. (The hot
// set's own network, farm and crawler fleet are built only by a shard
// that holds a pinned site: see runPinned.)
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
	// the whole run (the hot cohort); every other site runs every month
	// on the compiled fast path. 0 means no live site at all.
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

// TierStats reports how a run split its work across the tiers. The
// site-month counts are min(HotSites, Sites)·Months and the rest; the
// compiled/replayed split can shift between runs when workers race to
// compile the same wave class.
type TierStats struct {
	HotSiteMonths  int // site-months at full fidelity
	ColdSiteMonths int // site-months on the compiled fast path
	Promotions     int // always 0: nothing writes it; declared only until bench/ stops reading it

	CompiledWaves int // cache misses executed for real
	ReplayedWaves int // tail waves answered from the cache
	WaveClasses   int // distinct wave situations encountered

	ColumnarBytes int // steady-state long-tail state footprint

	// Where the run's time went, in nanoseconds. The three worker phases
	// are summed over workers (busy time, which exceeds the wall when
	// shards run in parallel); plan is the serial derivation of every
	// site's seed before the workers start plus each worker's draws;
	// MergeNS is the single-threaded join, observer callbacks included.
	// Timing, so never deterministic.
	PlanNS  int64 // deriving site seeds, then drawing every site's plan into the columns
	HotNS   int64 // full-fidelity site-months, site start and removal included
	ColdNS  int64 // compiled fast path, wave compiles included
	MergeNS int64 // folding worker accumulators and finalizing the result
}

// BytesPerSite is the columnar footprint per site.
func (s TierStats) BytesPerSite(sites int) float64 {
	if sites == 0 {
		return 0
	}
	return float64(s.ColumnarBytes) / float64(sites)
}

// tierWorker advances one contiguous site range through every month. It
// owns a scratch compiler for wave cache misses and per-worker
// accumulators merged after the join; what hot site-months need (a live
// farm and a kept crawler fleet) lives only as long as runPinned.
type tierWorker struct {
	world    *tierWorld
	tail     *tailState
	cache    *waveCache
	local    map[waveKey]waveEffect // lock-free L1 over cache
	curve    []float64
	hotSites int
	lo, hi   int

	compiler *waveCompiler
	planRand *stats.Rand // drawPlan's scratch source

	months    []MonthMetrics
	evidence  map[string]measure.Evidence
	evScratch []measure.Evidence          // per cold site-month, indexed by token id
	windowEv  map[string]measure.Evidence // per hot site-month
	touched   []int32
	stats     TierStats
}

func newTierWorker(world *tierWorld, tail *tailState, cache *waveCache,
	curve []float64, hotSites, lo, hi int) (*tierWorker, error) {
	compiler, err := newWaveCompiler(world)
	if err != nil {
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
		planRand:  stats.NewRand(0),
		months:    make([]MonthMetrics, world.sp.Months),
		evidence:  make(map[string]measure.Evidence),
		evScratch: make([]measure.Evidence, len(world.tokens)),
		windowEv:  make(map[string]measure.Evidence),
	}, nil
}

// run plans the shard's sites, then advances them in two passes. The
// pinned cohort goes site-major: a hot site is started once, run through
// all its months and removed, so its page set and its crawlers'
// keep-alive conns last all its months instead of one. Everything else
// goes month-major on the compiled fast path: the columnar arrays are
// walked sequentially per month, a cache-friendly linear scan.
//
// The visiting order cannot change the output. A site-month reads and
// writes only site i's own columns (and the immutable world), so site
// i's months see the same state whichever other sites ran in between;
// and what a site-month emits reaches the result only through
// MonthMetrics.add and Evidence.Merge, commutative integer folds into
// per-month and per-token accumulators.
func (w *tierWorker) run(ctx context.Context, seeds []int64) error {
	planStart := time.Now()
	for i := w.lo; i < w.hi; i++ {
		w.world.planSite(w.tail, w.planRand, i, seeds[i], w.curve)
	}
	w.stats.PlanNS = int64(time.Since(planStart))

	pinned := min(max(w.hotSites, w.lo), w.hi) // [lo, pinned) is this shard's cohort
	hotStart := time.Now()
	if err := w.runPinned(ctx, pinned); err != nil {
		return err
	}
	w.stats.HotNS = int64(time.Since(hotStart))

	coldStart := time.Now()
	for m := 0; m < w.world.sp.Months; m++ {
		for i := pinned; i < w.hi; i++ {
			if i&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := w.runColdMonth(ctx, i, m); err != nil {
				return err
			}
		}
	}
	w.stats.ColdNS = int64(time.Since(coldStart))
	return nil
}

// runPinned runs the shard's pinned cohort [lo, pinned), one site after
// another, on a network, a live farm and a kept crawler fleet that exist
// for this pass only — a shard with no pinned site builds none of them.
func (w *tierWorker) runPinned(ctx context.Context, pinned int) error {
	if pinned == w.lo {
		return nil
	}
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, siteIP)
	if err != nil {
		return err
	}
	defer farm.Close()
	crawlers := newRosterCrawlers(w.world, nw)
	for i := w.lo; i < pinned; i++ {
		if err := w.runPinnedSite(ctx, farm, crawlers, i); err != nil {
			return err
		}
	}
	return nil
}

// runPinnedSite runs every month of pinned-hot site i on one live site.
// The site starts bare; runHotMonth publishes its policy and blocker
// from the columns.
func (w *tierWorker) runPinnedSite(ctx context.Context, farm *webserver.Farm, crawlers *rosterCrawlers, i int) error {
	domain := SiteDomain(i)
	site, err := farm.StartSite(webserver.Config{
		Domain: domain,
		IP:     siteIP,
		Pages:  webserver.ContentPages(domain),
	})
	if err != nil {
		return err
	}
	defer crawlers.closeIdle() // after site.Close: see closeIdle
	defer site.Close()
	for m := 0; m < w.world.sp.Months; m++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.runHotMonth(ctx, site, crawlers, i, m); err != nil {
			return err
		}
	}
	return nil
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
	w.stats.ColdSiteMonths++
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
		d.Visits++
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

// runHotMonth simulates month m of pinned site i at full fidelity on
// its live site: policy and blocker published from columnar state, the
// pass's crawlers set to their schedule position, real netsim HTTP, and a
// flush from the month's window of the real request log. Everything a
// month observes (policy body, blocker list, crawler visit phase) is set
// here from the columns, the window starts at this month's log mark, and
// policies and blocking are only ever turned on, so the site carried
// over from last month holds nothing a fresh one would not be given.
func (w *tierWorker) runHotMonth(ctx context.Context, site *webserver.Site, crawlers *rosterCrawlers, i, m int) error {
	if obs.Enabled() {
		defer mMonthWallNS.ObserveSince(time.Now())
	}
	w.stats.HotSiteMonths++
	t, world := w.tail, w.world
	w.applyMonthState(i, m)
	if pid := t.policyID[i]; pid != 0 {
		site.SetRobots(&world.policies[pid].body)
	}
	if t.blockerOn.get(i) {
		site.SetBlocker(world.blockers[world.activeBlockerID(m)].blocker)
	}

	mark := site.LogLen()
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
		if err := crawlers.wave(ctx, r, k, site); err != nil {
			return err
		}
		mCrawlWaves.Inc()
		d.Visits++
	}

	restricts, parsed := world.restrictsFunc(t.policyID[i])
	absorbWindow(site.LogSince(mark), parsed, restricts, &d, w.windowEv)
	for tok, ev := range w.windowEv {
		d.ClassCounts[measure.ClassifyEvidence(ev)]++
		w.evidence[tok] = w.evidence[tok].Merge(ev)
	}
	clear(w.windowEv)
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
