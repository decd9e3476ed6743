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
// The 64-site chunks that hold pinned sites are planned before the
// workers start. Workers then pull from one shared queue until none is
// left: the pinned sites one at a time, spread over the first half of
// the cold-only chunks (each planned and advanced in one claim), then
// the other half, and last the cold rest of the final pinned chunk.
// Policy transitions and crawl waves are computed from (site, month) on
// the fly rather than scheduled, so a claim needs nothing from any other
// (see tierQueue).
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
	q := newTierQueue(sp.Sites, hot)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > q.items() {
		workers = q.items()
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
		w, err := newTierWorker(world, tail, cache, curve)
		if err != nil {
			for _, prev := range ws[:wi] {
				prev.close()
			}
			return nil, err
		}
		ws[wi] = w
	}
	// A pinned site is claimed alone, but its plan is drawn with its
	// chunk's: a few draws per site, against a year of live HTTP each.
	for c := 0; c < q.hotChunks; c++ {
		lo := c * chunkSites
		ws[0].planChunk(seeds, lo, min(lo+chunkSites, sp.Sites))
	}
	if err := eachWorker(ws, cancel, func(w *tierWorker) error {
		defer w.close()
		return w.run(runCtx, seeds, q)
	}); err != nil {
		return nil, err
	}

	// Merge worker accumulators; all integer adds, so the result is
	// independent of scheduling, of which worker claimed what and
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

// eachWorker runs f once per worker, each on its own goroutine, and
// returns the first error after all have returned; an error calls
// cancel, so the others stop at their next claim.
func eachWorker(ws []*tierWorker, cancel func(), f func(*tierWorker) error) error {
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(w); err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// chunkSites is the unit of cold work a worker claims: one bitset word
// of sites. Chunks start on word boundaries, so no two workers ever
// write the same word of a cold column and the columns need no locks
// (and no atomics). Pinned sites are claimed one at a time, and
// several workers may carry sites of one word: a pinned site-month
// writes only its worker's one-site copy of the site's state (see
// tierWorker.hot), so the shared words stay the cold claims' alone.
const chunkSites = 64

// tierQueue is a run's shared work queue: one fixed order of items, and
// each claim takes the next. Its pinned items are the pinned sites,
// [0, hot); its cold items are the chunks that hold no pinned site and,
// when the pinned cohort ends inside a chunk, one last item: that
// chunk's cold rest, sites [hot, restEnd).
//
// The pinned sites are spread evenly over the first half of the
// cold-only chunks (spread is that half), so pinned sites run beside
// cold chunks rather than beside each other: on a 2-vCPU container two
// live sites at once each ran ~20% slower than one beside cold work,
// and a 100,000-site run with its 21 pinned sites claimed first lost ~3%
// of its throughput to that. The first claim is a pinned site, the
// longest work first, and the last is claimed by the half-way point, so
// each has cold work after it to even out the workers' ends; with no
// cold-only chunk to spread over (spread 0) they all go first.
type tierQueue struct {
	hot, hotChunks, coldChunks int
	restEnd                    int // end of the last pinned chunk's cold rest
	coldItems                  int // coldChunks, plus one for a cold rest
	spread                     int
	next                       atomic.Int64 // the next claim
}

func newTierQueue(sites, hot int) *tierQueue {
	q := &tierQueue{hot: hot, hotChunks: (hot + chunkSites - 1) / chunkSites}
	q.coldChunks = (sites+chunkSites-1)/chunkSites - q.hotChunks
	q.restEnd = min(q.hotChunks*chunkSites, sites)
	q.coldItems = q.coldChunks
	if q.restEnd > hot {
		q.coldItems++
	}
	q.spread = q.coldChunks / 2
	return q
}

// items is the queue's length: the most workers that can have work.
func (q *tierQueue) items() int { return q.hot + q.coldItems }

// claim takes the next item: pinned site i, or cold item i. ok is false
// once the queue is empty.
func (q *tierQueue) claim() (pinned bool, i int, ok bool) {
	k := int(q.next.Add(1) - 1)
	if k >= q.items() {
		return false, 0, false
	}
	pinned, i = q.item(k)
	return pinned, i, true
}

// item is the queue's kth item. The first hot+spread items interleave
// the pinned sites with the first spread cold items, the first k of
// them holding ceil(k·hot/(hot+spread)) pinned sites; the rest are the
// remaining cold items in order.
func (q *tierQueue) item(k int) (pinned bool, i int) {
	n := q.hot + q.spread
	if k >= n {
		return false, k - q.hot
	}
	p := (k*q.hot + n - 1) / n // pinned sites among items [0, k)
	if ((k+1)*q.hot+n-1)/n > p {
		return true, p
	}
	return false, k - p
}

// TierOptions configures RunTiered.
type TierOptions struct {
	// HotSites pins the first k sites to full-fidelity simulation for
	// the whole run (the hot cohort); every other site runs every month
	// on the compiled fast path. 0 means no live site at all.
	HotSites int
	// Workers is how many goroutines claim work from the run's shared
	// queue — pinned sites one at a time, cold sites in 64-site chunks
	// — at most one per item; 0 means GOMAXPROCS. The result does not
	// depend on it.
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
	// workers run in parallel); plan is the serial derivation of every
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

// tierWorker advances the sites and chunks it claims through every
// month. It owns a scratch compiler for wave cache misses, a memo of the
// cold site-month classes it has replayed, per-worker accumulators
// merged after the join, and — built the first time it claims a pinned
// site — the live farm and kept crawler fleet hot site-months run on.
type tierWorker struct {
	world *tierWorld
	tail  *tailState
	cache *waveCache
	memo  map[monthKey]*monthEffect
	curve []float64

	compiler *waveCompiler
	planRand *stats.Rand // drawPlan's scratch source
	farm     *webserver.Farm
	crawlers *rosterCrawlers
	// hot is a one-site tailState holding the pinned site the worker is
	// carrying, copied from its planned row: its months write here, not
	// to the shared words other workers' sites sit in.
	hot *tailState

	months   []MonthMetrics
	evidence []measure.Evidence          // indexed by token id
	windowEv map[string]measure.Evidence // per hot site-month
	stats    TierStats
}

func newTierWorker(world *tierWorld, tail *tailState, cache *waveCache, curve []float64) (*tierWorker, error) {
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
		compiler: compiler,
		planRand: stats.NewRand(0),
		hot:      newTailState(1),
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

// run claims items of q until none is left: a pinned site runs
// site-major on the worker's live farm, a cold-only chunk is planned
// and then advanced month-major, and the final pinned chunk's cold rest
// is advanced month-major (planned with the pinned chunks, before the
// workers started).
//
// The visiting order cannot change the output. A site-month reads and
// writes only site i's own state (and the immutable world), so site
// i's months see the same state whichever other sites ran in between;
// and what a site-month emits reaches the result only through
// MonthMetrics.add and Evidence.Merge, commutative integer folds into
// per-month and per-token accumulators.
func (w *tierWorker) run(ctx context.Context, seeds []int64, q *tierQueue) error {
	for {
		pinned, i, ok := q.claim()
		if !ok {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		switch {
		case pinned:
			err = w.runPinnedSite(ctx, i)
		case i < q.coldChunks:
			lo := (q.hotChunks + i) * chunkSites
			hi := min(lo+chunkSites, w.world.sp.Sites)
			w.planChunk(seeds, lo, hi)
			err = w.runCold(ctx, lo, hi)
		default:
			err = w.runCold(ctx, q.hot, q.restEnd)
		}
		if err != nil {
			return err
		}
	}
}

// planChunk draws the plans of sites [lo, hi), one chunk, into the
// columns.
func (w *tierWorker) planChunk(seeds []int64, lo, hi int) {
	planStart := time.Now()
	for i := lo; i < hi; i++ {
		w.world.planSite(w.tail, w.planRand, i, seeds[i], w.curve)
	}
	w.stats.PlanNS += int64(time.Since(planStart))
}

// runCold advances cold sites [lo, hi), all within one chunk,
// month-major on the compiled fast path.
func (w *tierWorker) runCold(ctx context.Context, lo, hi int) error {
	coldStart := time.Now()
	for m := 0; m < w.world.sp.Months; m++ {
		for i := lo; i < hi; i++ {
			if err := w.runColdMonth(ctx, i, m); err != nil {
				return err
			}
		}
	}
	w.stats.ColdNS += int64(time.Since(coldStart))
	return nil
}

// runPinnedSite runs every month of pinned site i on one live site of
// the worker's farm, built with the kept crawler fleet on the worker's
// first pinned site. The site starts bare; runHotMonth publishes its
// policy and blocker from the worker's copy of its state. Site-major
// order means a hot site is started once, so its page set lasts all
// its months instead of one.
func (w *tierWorker) runPinnedSite(ctx context.Context, i int) error {
	defer func(start time.Time) { w.stats.HotNS += int64(time.Since(start)) }(time.Now())
	if w.farm == nil {
		nw := netsim.New()
		farm, err := webserver.NewFarm(nw, siteIP)
		if err != nil {
			return err
		}
		w.farm, w.crawlers = farm, newRosterCrawlers(w.world, nw)
	}
	// A wave logs at most one robots.txt fetch and one GET per page, so
	// a log sized for every wave of the run never regrows.
	waves := 0
	for m := 0; m < w.world.sp.Months; m++ {
		for r := range w.world.roster {
			if _, due := w.world.dueWave(r, i, m); due {
				waves++
			}
		}
	}
	domain := siteDomain(i)
	pages := webserver.ContentPages(domain)
	site, err := w.farm.StartSite(webserver.Config{
		Domain: domain,
		IP:     siteIP,
		Pages:  pages,
		LogCap: waves * (len(pages) + 1),
	})
	if err != nil {
		return err
	}
	defer site.Close()
	w.hot.carry(w.tail, i)
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

// applyMonthState applies month m's policy and blocker events to row i
// of t — a cold site's row of the shared columns, or row 0 of the
// worker's copy of the pinned site it carries: policy changes land
// before the blocking toggle, and crawl waves always run after both, so
// the post-event state is the state every wave observes and the
// month-end flush records.
func (w *tierWorker) applyMonthState(t *tailState, i, m int) {
	world := w.world
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
	t, world := w.tail, w.world
	w.applyMonthState(t, i, m)
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
	w.monthStateCounters(t, i, m, &w.months[m])
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
		k, due := world.dueWave(r, i, m)
		if !due {
			continue
		}
		we, err := w.wave(ctx, waveKey{
			roster:  uint8(r),
			phase:   wavePhase(world.roster[r].behavior, k),
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
// its live site: policy and blocker published from the worker's copy of
// the site's state, the worker's kept crawlers set to their schedule
// position, real netsim HTTP, and a flush from the month's window of the
// real request log. Everything a month observes (policy body, blocker
// list, crawler visit phase) is set here from that state, the window
// starts at this month's log mark, and
// policies and blocking are only ever turned on, so the site carried
// over from last month holds nothing a fresh one would not be given.
func (w *tierWorker) runHotMonth(ctx context.Context, site *webserver.Site, i, m int) error {
	start := time.Now()
	defer mMonthWallNS.ObserveSince(start)
	w.stats.HotSiteMonths++
	t, world := w.hot, w.world
	w.applyMonthState(t, 0, m)
	if pid := t.policyID[0]; pid != 0 {
		site.SetRobots(&world.policies[pid].body)
	}
	if t.blockerOn.get(0) {
		site.SetBlocker(world.blockers[world.activeBlockerID(m)].blocker)
	}
	crawlStart := time.Now()
	mHotStagePublishNS.Observe(uint64(crawlStart.Sub(start)))

	mark := site.LogLen()
	logged := mark
	var d MonthMetrics
	for r := range world.roster {
		k, due := world.dueWave(r, i, m)
		if !due {
			continue
		}
		if err := w.crawlers.wave(ctx, r, k, site); err != nil {
			return err
		}
		mCrawlWaves.Inc()
		n := site.LogLen()
		mHotGets.Add(uint64(n - logged))
		logged = n
		d.Visits++
	}
	absorbStart := time.Now()
	mHotStageCrawlNS.Observe(uint64(absorbStart.Sub(crawlStart)))

	restricts, parsed := world.restrictsFunc(t.policyID[0])
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
	w.monthStateCounters(t, 0, m, &d)
	w.months[m].add(d)
	return nil
}

// monthStateCounters records the month-end policy-state tallies from
// row i of t (as in applyMonthState): adoption, managed and blocker
// counts and the rule-list coverage gap.
func (w *tierWorker) monthStateCounters(t *tailState, i, m int, d *MonthMetrics) {
	world := w.world
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
