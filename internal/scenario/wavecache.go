package scenario

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/crawler"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/webserver"
)

// The compiled fast path. A long-tail site never runs live HTTP:
// instead, each distinct crawl-wave situation — (roster entry, visit
// phase, policy, blocker rule list, domain width) — is executed once,
// for real, on a scratch farm, and its log window is folded into a
// compact effect that replays with two array reads. The key covers
// every input the webserver and crawler consult during a wave, so the
// cache memoizes real execution rather than approximating it; the
// parity suite holds an all-cold run bit-identical to an all-hot one.

// waveKey identifies one crawl-wave situation. It is eight bytes with no
// padding, so maps keyed on it hash and compare it as one 64-bit word
// (the runtime's fast64 map path) on every cold wave.
type waveKey struct {
	roster  uint8  // roster entry index
	phase   uint8  // visit sequence mod 3 (IntermittentFetch's cycle)
	policy  uint16 // interned policy published at crawl time (0 = none)
	blocker uint16 // interned blocker rule list in force (0 = off)
	digits  uint16 // domain digit width (page bytes depend on it)
}

// waveEffect is the synthetic log record of one wave: the month-metric
// deltas and per-token evidence its real log window produced, feeding
// the same measure.ClassifyEvidence pipeline as live traffic.
type waveEffect struct {
	robotsFetches   int32
	blockedRequests int32
	disallowedBytes int64
	allowedBytes    int64
	token           int32 // tokens index of the evidence entry; -1 none
	ev              measure.Evidence
}

// waveCache shares compiled effects across workers. Concurrent misses
// on one key compile the same deterministic effect, so races are benign
// duplicate work; the first store wins.
type waveCache struct {
	mu sync.RWMutex
	m  map[waveKey]waveEffect
}

func (c *waveCache) get(key waveKey) (waveEffect, bool) {
	c.mu.RLock()
	eff, ok := c.m[key]
	c.mu.RUnlock()
	return eff, ok
}

func (c *waveCache) put(key waveKey, eff waveEffect) waveEffect {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[key]; ok {
		return prev
	}
	c.m[key] = eff
	return eff
}

// wavePhase is the visit-sequence residue a behaviour keys on: an
// IntermittentFetch crawler making its k-th visit (0-based) fetches
// robots.txt iff k%3 == 0. Every other behaviour is phase-free.
func wavePhase(b crawler.Behavior, k int) uint8 {
	if b == crawler.IntermittentFetch {
		return uint8(k % 3)
	}
	return 0
}

// waveCompiler executes cache misses for one worker: a private scratch
// network and farm, one throwaway site per domain width, reconfigured
// per compile, and the worker's scratch crawler fleet. The scratch sites
// live as long as the compiler, so its crawlers' conns never go stale.
type waveCompiler struct {
	world    *tierWorld
	farm     *webserver.Farm
	crawlers *rosterCrawlers
	sites    map[uint16]*webserver.Site
}

func newWaveCompiler(world *tierWorld) (*waveCompiler, error) {
	nw := netsim.New()
	farm, err := webserver.NewFarm(nw, siteIP)
	if err != nil {
		return nil, err
	}
	return &waveCompiler{
		world:    world,
		farm:     farm,
		crawlers: newRosterCrawlers(world, nw),
		sites:    make(map[uint16]*webserver.Site),
	}, nil
}

func (c *waveCompiler) close() {
	c.farm.Close()
}

// site returns the scratch site whose domain has the given digit width.
// "site-000…0.scratch" would serve different "/" bytes than a real
// domain, so the scratch domain uses the exact scenario format at index
// 0 padded to width — same length, same links, same page bytes.
func (c *waveCompiler) site(digits uint16) (*webserver.Site, error) {
	if s, ok := c.sites[digits]; ok {
		return s, nil
	}
	domain := fmt.Sprintf("site-%0*d.scenario.test", int(digits), 0)
	s, err := c.farm.StartSite(webserver.Config{
		Domain: domain,
		IP:     siteIP,
		Pages:  webserver.ContentPages(domain),
	})
	if err != nil {
		return nil, err
	}
	c.sites[digits] = s
	return s, nil
}

// compile runs one wave for real — scratch site configured to the key's
// policy and blocker, the roster entry's crawler set to the key's phase,
// real HTTP over netsim — and folds its log window into an effect via
// the same absorbWindow a hot month's flush uses.
func (c *waveCompiler) compile(ctx context.Context, key waveKey) (waveEffect, error) {
	site, err := c.site(key.digits)
	if err != nil {
		return waveEffect{}, err
	}
	if key.policy == 0 {
		site.SetRobots(nil)
	} else {
		body := c.world.policies[key.policy].body
		site.SetRobots(&body)
	}
	if key.blocker == 0 {
		site.SetBlocker(nil)
	} else {
		site.SetBlocker(c.world.blockers[key.blocker].blocker)
	}

	mark := site.LogLen()
	if err := c.crawlers.wave(ctx, int(key.roster), int(key.phase), site); err != nil {
		return waveEffect{}, err
	}
	window := site.LogSince(mark)

	restricts, parsed := c.world.restrictsFunc(key.policy)
	var mm MonthMetrics
	windowEv := make(map[string]measure.Evidence)
	absorbWindow(window, parsed, restricts, &mm, windowEv)

	eff := waveEffect{
		robotsFetches:   int32(mm.RobotsFetches),
		blockedRequests: int32(mm.BlockedRequests),
		disallowedBytes: mm.DisallowedBytes,
		allowedBytes:    mm.AllowedBytes,
		token:           -1,
	}
	// One crawler, one User-Agent: a wave's window can carry evidence for
	// at most one token. Guarding keeps the effect deterministic.
	if len(windowEv) > 1 {
		return waveEffect{}, fmt.Errorf("scenario: wave compile produced %d evidence tokens", len(windowEv))
	}
	for tok, ev := range windowEv {
		id, ok := c.world.tokenIndex[tok]
		if !ok {
			return waveEffect{}, fmt.Errorf("scenario: wave compile saw unknown token %q", tok)
		}
		eff.token = int32(id)
		eff.ev = ev
	}
	return eff, nil
}
