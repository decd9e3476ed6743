package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
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
// comes from seeds derived sequentially before any worker starts. The
// parity suite holds hot=0 to the all-hot run of the same code.
//
// Workers pull 64-site chunks from a shared cursor until none is left.
// Policy transitions and crawl waves are computed from (site, month) on
// the fly rather than scheduled, so a chunk needs nothing from any other
// and the run has no cross-worker barrier. The pinned cohort holds the
// lowest indices, so its chunks are claimed first and the cold tail fills
// the other cores (see runChunk).
func RunTiered(ctx context.Context, spec Spec, opts TierOptions) (*Result, error) {
	defer mRunWallNS.ObserveSince(time.Now())
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
	chunks := (sp.Sites + chunkSites - 1) / chunkSites
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}

	seedStart := time.Now()
	seeds := siteSeeds(sp)
	seedNS := int64(time.Since(seedStart))
	tail := newTailState(sp.Sites)
	cache := &waveCache{m: make(map[waveKey]waveEffect)}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ws := make([]*tierWorker, workers)
	for wi := range ws {
		w, err := newTierWorker(world, tail, cache, curve, hot)
		if err != nil {
			for _, prev := range ws[:wi] {
				prev.close()
			}
			return nil, err
		}
		ws[wi] = w
	}
	var next atomic.Int64 // the next unclaimed chunk
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for _, w := range ws {
		wg.Add(1)
		go func(w *tierWorker) {
			defer wg.Done()
			defer w.close()
			if err := w.run(runCtx, seeds, &next, chunks); err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Merge worker accumulators; all integer adds, so the result is
	// independent of scheduling, of which worker claimed which chunk and
	// of the worker count.
	mergeStart := time.Now()
	res := newResult(sp, start)
	evidence := make([]measure.Evidence, len(world.tokens))
	ts := TierStats{PlanNS: seedNS}
	for _, w := range ws {
		for m := range w.months {
			res.Months[m].add(w.months[m])
		}
		for tk, ev := range w.evidence {
			evidence[tk] = evidence[tk].Merge(ev)
		}
		ts.HotSiteMonths += w.stats.HotSiteMonths
		ts.ColdSiteMonths += w.stats.ColdSiteMonths
		ts.CompiledWaves += w.stats.CompiledWaves
		ts.ReplayedWaves += w.stats.ReplayedWaves
		ts.PlanNS += w.stats.PlanNS
		ts.HotNS += w.stats.HotNS
		ts.ColdNS += w.stats.ColdNS
	}
	byToken := make(map[string]measure.Evidence)
	for tk, ev := range evidence {
		if ev != (measure.Evidence{}) {
			byToken[world.tokens[tk]] = ev
		}
	}
	res.finalize(byToken)
	ts.MergeNS = int64(time.Since(mergeStart))
	mPhasePlanNS.Observe(uint64(ts.PlanNS))
	mPhaseHotNS.Observe(uint64(ts.HotNS))
	mPhaseColdNS.Observe(uint64(ts.ColdNS))
	mPhaseMergeNS.Observe(uint64(ts.MergeNS))
	mTierHotSiteMonths.Add(uint64(ts.HotSiteMonths))
	mTierColdSiteMonths.Add(uint64(ts.ColdSiteMonths))
	mTierCompiledWaves.Add(uint64(ts.CompiledWaves))
	mTierReplayedWaves.Add(uint64(ts.ReplayedWaves))

	if opts.Stats != nil {
		ts.WaveClasses = len(cache.m)
		ts.ColumnarBytes = tail.bytes()
		*opts.Stats = ts
	}
	return res, nil
}

// chunkSites is the unit of work a worker claims: one bitset word of
// sites. Chunks start on word boundaries, so no two workers ever write
// the same word and the columns need no locks (and no atomics).
const chunkSites = 64

// TierOptions configures RunTiered.
type TierOptions struct {
	// HotSites pins the first k sites to full-fidelity simulation for
	// the whole run (the hot cohort); every other site runs every month
	// on the compiled fast path. 0 means no live site at all.
	HotSites int
	// Workers is how many goroutines claim 64-site chunks from the run's
	// shared cursor, at most one per chunk; 0 means GOMAXPROCS. The
	// result does not depend on it.
	Workers int
	// Stats, when non-nil, receives the run's tier accounting.
	Stats *TierStats
}

// TierStats reports how a run split its work across the tiers. The
// site-month counts are min(HotSites, Sites)·Months and the rest;
// CompiledWaves can shift between runs when workers race to compile the
// same wave class.
type TierStats struct {
	HotSiteMonths  int // site-months at full fidelity
	ColdSiteMonths int // site-months on the compiled fast path
	Promotions     int // always 0: nothing writes it; declared only until bench/ stops reading it

	CompiledWaves int // cache misses executed for real
	ReplayedWaves int // every tail wave, memoised site-month classes included
	WaveClasses   int // distinct wave situations encountered

	ColumnarBytes int // steady-state long-tail state footprint

	// Where the run's time went, in nanoseconds. The three worker phases
	// are summed over workers (busy time, which exceeds the wall when
	// chunks run in parallel); plan is the serial derivation of every
	// site's seed before the workers start plus each worker's draws;
	// MergeNS is the single-threaded join. Timing, so never
	// deterministic.
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

// tierWorker advances the chunks it claims through every month. It owns
// a scratch compiler for wave cache misses, a memo of the cold
// site-month classes it has replayed, per-worker accumulators merged
// after the join, and — built the first time a claimed chunk holds a
// pinned site — the live farm and kept crawler fleet hot site-months
// run on.
type tierWorker struct {
	world    *tierWorld
	tail     *tailState
	cache    *waveCache
	memo     map[monthKey]*monthEffect
	curve    []float64
	hotSites int

	compiler *waveCompiler
	planRand *stats.Rand // drawPlan's scratch source
	farm     *webserver.Farm
	crawlers *rosterCrawlers

	months   []MonthMetrics
	evidence []measure.Evidence          // indexed by token id
	windowEv map[string]measure.Evidence // per hot site-month
	stats    TierStats
}

func newTierWorker(world *tierWorld, tail *tailState, cache *waveCache,
	curve []float64, hotSites int) (*tierWorker, error) {
	compiler, err := newWaveCompiler(world)
	if err != nil {
		return nil, err
	}
	return &tierWorker{
		world:    world,
		tail:     tail,
		cache:    cache,
		memo:     make(map[monthKey]*monthEffect),
		curve:    curve,
		hotSites: hotSites,
		compiler: compiler,
		planRand: stats.NewRand(0),
		months:   make([]MonthMetrics, world.sp.Months),
		evidence: make([]measure.Evidence, len(world.tokens)),
		windowEv: make(map[string]measure.Evidence),
	}, nil
}

func (w *tierWorker) close() {
	w.compiler.close()
	if w.farm != nil {
		w.farm.Close()
	}
}

// run claims chunks from next until all chunks are taken.
func (w *tierWorker) run(ctx context.Context, seeds []int64, next *atomic.Int64, chunks int) error {
	for {
		c := int(next.Add(1) - 1)
		if c >= chunks {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := c * chunkSites
		if err := w.runChunk(ctx, seeds, lo, min(lo+chunkSites, w.world.sp.Sites)); err != nil {
			return err
		}
	}
}

// runChunk plans sites [lo, hi), then advances them in two passes. The
// chunk's pinned sites go site-major: a hot site is started once, run
// through all its months and removed, so its page set and its crawlers'
// keep-alive conns last all its months instead of one. The rest go
// month-major on the compiled fast path.
//
// The visiting order cannot change the output. A site-month reads and
// writes only site i's own columns (and the immutable world), so site
// i's months see the same state whichever other sites ran in between;
// and what a site-month emits reaches the result only through
// MonthMetrics.add and Evidence.Merge, commutative integer folds into
// per-month and per-token accumulators.
func (w *tierWorker) runChunk(ctx context.Context, seeds []int64, lo, hi int) error {
	planStart := time.Now()
	for i := lo; i < hi; i++ {
		w.world.planSite(w.tail, w.planRand, i, seeds[i], w.curve)
	}
	w.stats.PlanNS += int64(time.Since(planStart))

	pinned := min(max(w.hotSites, lo), hi) // [lo, pinned) is this chunk's cohort
	if pinned > lo {
		hotStart := time.Now()
		if err := w.runPinned(ctx, lo, pinned); err != nil {
			return err
		}
		w.stats.HotNS += int64(time.Since(hotStart))
	}

	coldStart := time.Now()
	for m := 0; m < w.world.sp.Months; m++ {
		for i := pinned; i < hi; i++ {
			if err := w.runColdMonth(ctx, i, m); err != nil {
				return err
			}
		}
	}
	w.stats.ColdNS += int64(time.Since(coldStart))
	return nil
}

// runPinned runs pinned sites [lo, pinned), one after another, on the
// worker's live farm and kept crawler fleet; a worker that never claims
// a pinned site builds neither.
func (w *tierWorker) runPinned(ctx context.Context, lo, pinned int) error {
	if w.farm == nil {
		nw := netsim.New()
		farm, err := webserver.NewFarm(nw, siteIP)
		if err != nil {
			return err
		}
		w.farm, w.crawlers = farm, newRosterCrawlers(w.world, nw)
	}
	for i := lo; i < pinned; i++ {
		if err := w.runPinnedSite(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// runPinnedSite runs every month of pinned-hot site i on one live site.
// The site starts bare; runHotMonth publishes its policy and blocker
// from the columns.
func (w *tierWorker) runPinnedSite(ctx context.Context, i int) error {
	domain := siteDomain(i)
	site, err := w.farm.StartSite(webserver.Config{
		Domain: domain,
		IP:     siteIP,
		Pages:  webserver.ContentPages(domain),
	})
	if err != nil {
		return err
	}
	defer w.crawlers.closeIdle() // after site.Close: see closeIdle
	defer site.Close()
	for m := 0; m < w.world.sp.Months; m++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.runHotMonth(ctx, site, i, m); err != nil {
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
		case world.sp.Adoption.Source == sourceMeasurement:
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

// monthKey identifies one cold site-month class: everything a cold
// site-month's waves can observe. The month fixes which roster entries
// are due and at which visit; limitBucket, the number of roster site
// limits at or below the site's index, fixes which of them SiteLimit
// cuts (the cut set only grows with the index, so the count determines
// it). Eight bytes with no padding, like waveKey.
type monthKey struct {
	month, policy, blocker uint16
	digits, limitBucket    uint8
}

// monthEffect is the wave part of one cold site-month class: visits (one
// per wave), robots fetches, blocked requests, both byte counts and the
// verdict classes in d, and the per-token evidence behind those classes.
type monthEffect struct {
	d  MonthMetrics
	ev []tokenEvidence
}

type tokenEvidence struct {
	token int32
	ev    measure.Evidence
}

// runColdMonth advances one long-tail site-month: its columnar state
// transitions, one memo probe for its class, and integer folds — no
// HTTP, no allocation once the worker has seen the class.
func (w *tierWorker) runColdMonth(ctx context.Context, i, m int) error {
	w.stats.ColdSiteMonths++
	w.applyMonthState(i, m)
	t, world := w.tail, w.world
	key := monthKey{
		month:       uint16(m),
		policy:      t.policyID[i],
		digits:      uint8(domainDigits(i)),
		limitBucket: world.limitBucket(i),
	}
	if t.blockerOn.get(i) {
		key.blocker = world.activeBlockerID(m)
	}
	eff, ok := w.memo[key]
	if !ok {
		var err error
		if eff, err = w.replayMonth(ctx, key, i); err != nil {
			return err
		}
		w.memo[key] = eff
	}
	w.stats.ReplayedWaves += eff.d.Visits
	w.months[m].add(eff.d)
	for _, te := range eff.ev {
		w.evidence[te.token] = w.evidence[te.token].Merge(te.ev)
	}
	w.monthStateCounters(i, m, &w.months[m])
	return nil
}

// replayMonth computes cold site-month class key as site i, any member
// of the class, sees it: each due wave resolved from the shared wave
// cache or compiled on a miss, then each token's merged evidence
// classified — the flush a hot month makes from its log window.
func (w *tierWorker) replayMonth(ctx context.Context, key monthKey, i int) (*monthEffect, error) {
	world := w.world
	eff := &monthEffect{}
	d := &eff.d
	m := int(key.month)
	for r := range world.roster {
		rc := &world.roster[r]
		if rc.spec.SiteLimit > 0 && i >= rc.spec.SiteLimit {
			continue
		}
		k, due := waveIndex(rc.spec, m)
		if !due {
			continue
		}
		we, err := w.wave(ctx, waveKey{
			roster:  uint8(r),
			phase:   wavePhase(rc.behavior, k),
			policy:  key.policy,
			blocker: key.blocker,
			digits:  uint16(key.digits),
		})
		if err != nil {
			return nil, err
		}
		d.Visits++
		d.RobotsFetches += int(we.robotsFetches)
		d.BlockedRequests += int(we.blockedRequests)
		d.DisallowedBytes += we.disallowedBytes
		d.AllowedBytes += we.allowedBytes
		if we.token >= 0 {
			eff.addEvidence(we.token, we.ev)
		}
	}
	for _, te := range eff.ev {
		d.ClassCounts[measure.ClassifyEvidence(te.ev)]++
	}
	return eff, nil
}

func (e *monthEffect) addEvidence(token int32, ev measure.Evidence) {
	for j := range e.ev {
		if e.ev[j].token == token {
			e.ev[j].ev = e.ev[j].ev.Merge(ev)
			return
		}
	}
	e.ev = append(e.ev, tokenEvidence{token, ev})
}

// wave resolves one wave situation from the shared cache, compiling it
// on the worker's scratch farm on a miss.
func (w *tierWorker) wave(ctx context.Context, key waveKey) (waveEffect, error) {
	if eff, ok := w.cache.get(key); ok {
		return eff, nil
	}
	compiled, err := w.compiler.compile(ctx, key)
	if err != nil {
		return waveEffect{}, err
	}
	w.stats.CompiledWaves++
	return w.cache.put(key, compiled), nil
}

// runHotMonth simulates month m of pinned site i at full fidelity on
// its live site: policy and blocker published from columnar state, the
// worker's kept crawlers set to their schedule position, real netsim
// HTTP, and a flush from the month's window of the real request log.
// Everything a
// month observes (policy body, blocker list, crawler visit phase) is set
// here from the columns, the window starts at this month's log mark, and
// policies and blocking are only ever turned on, so the site carried
// over from last month holds nothing a fresh one would not be given.
func (w *tierWorker) runHotMonth(ctx context.Context, site *webserver.Site, i, m int) error {
	start := time.Now()
	defer mMonthWallNS.ObserveSince(start)
	w.stats.HotSiteMonths++
	t, world := w.tail, w.world
	w.applyMonthState(i, m)
	if pid := t.policyID[i]; pid != 0 {
		site.SetRobots(&world.policies[pid].body)
	}
	if t.blockerOn.get(i) {
		site.SetBlocker(world.blockers[world.activeBlockerID(m)].blocker)
	}
	crawlStart := time.Now()
	mHotStagePublishNS.Observe(uint64(crawlStart.Sub(start)))

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
		if err := w.crawlers.wave(ctx, r, k, site); err != nil {
			return err
		}
		mCrawlWaves.Inc()
		d.Visits++
	}
	absorbStart := time.Now()
	mHotStageCrawlNS.Observe(uint64(absorbStart.Sub(crawlStart)))

	restricts, parsed := world.restrictsFunc(t.policyID[i])
	absorbWindow(site.LogSince(mark), parsed, restricts, &d, w.windowEv)
	classifyStart := time.Now()
	mHotStageAbsorbNS.Observe(uint64(classifyStart.Sub(absorbStart)))
	defer mHotStageClassifyNS.ObserveSince(classifyStart)
	for tok, ev := range w.windowEv {
		d.ClassCounts[measure.ClassifyEvidence(ev)]++
		tk, ok := world.tokenIndex[tok]
		if !ok {
			return fmt.Errorf("scenario: site %d month %d logged unknown token %q", i, m, tok)
		}
		w.evidence[tk] = w.evidence[tk].Merge(ev)
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
