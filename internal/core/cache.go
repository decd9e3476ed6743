package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/longitudinal"
	"repro/internal/measure"
	"repro/internal/policyd"
	"repro/internal/scenario"
	"repro/internal/survey"
)

// memoCache is a keyed, concurrency-safe memoization cache. Concurrent
// callers of the same key block until the first caller's computation
// finishes and then share its value (singleflight semantics), so a
// substrate shared by several parallel experiments is built exactly once.
// Failed computations are evicted rather than cached, so a later caller
// retries instead of inheriting a stale error (for example a context
// cancellation from an earlier run).
type memoCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	done chan struct{}
	val  any
	err  error
}

// newMemoCache returns an empty cache.
func newMemoCache() *memoCache {
	return &memoCache{entries: make(map[string]*cacheEntry)}
}

// Do returns the value cached under key, computing it with fn on the
// first call. fn runs outside the cache lock.
func (c *memoCache) Do(key string, fn func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.val, e.err = fn()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// Len returns the number of cached entries.
func (c *memoCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Env is the execution environment one engine run hands to every
// experiment: the configuration plus the shared substrate cache. All
// experiments scheduled by the same RunAll call share one Env, so
// expensive substrates — the corpus, the longitudinal analysis, the
// blocking survey, the survey population — are built once regardless of
// how many experiments consume them or on how many goroutines they run.
type Env struct {
	Config Config
	cache  *memoCache
}

// NewEnv returns a fresh environment with an empty cache.
func NewEnv(cfg Config) *Env {
	return &Env{Config: cfg, cache: newMemoCache()}
}

// memo is the typed access path to the Env cache.
func memo[T any](e *Env, key string, fn func() (T, error)) (T, error) {
	v, err := e.cache.Do(key, func() (any, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// Corpus returns the shared corpus at the configured scale.
func (e *Env) Corpus(ctx context.Context) (*corpus.Corpus, error) {
	return e.corpusAt(ctx, e.Config.Scale)
}

// corpusAt returns the shared corpus at an explicit scale (the parser
// ablation caps its corpus below the configured scale).
func (e *Env) corpusAt(ctx context.Context, scale float64) (*corpus.Corpus, error) {
	key := fmt.Sprintf("corpus/%d/%g", e.Config.Seed, scale)
	return memo(e, key, func() (*corpus.Corpus, error) {
		return corpus.New(ctx, corpus.Config{
			Seed:    e.Config.Seed,
			Scale:   scale,
			Workers: e.Config.Workers,
		})
	})
}

// Longitudinal returns the §3 analysis over the shared corpus, computed
// once per (seed, scale).
func (e *Env) Longitudinal(ctx context.Context) (*longitudinal.Result, error) {
	key := fmt.Sprintf("longitudinal/%d/%g", e.Config.Seed, e.Config.Scale)
	return memo(e, key, func() (*longitudinal.Result, error) {
		c, err := e.Corpus(ctx)
		if err != nil {
			return nil, err
		}
		return longitudinal.Analyze(ctx, c, e.Config.Workers)
	})
}

// surveyPopulation returns the shared §4 artist survey population.
func (e *Env) surveyPopulation() *survey.Population {
	pop, _ := memo(e, fmt.Sprintf("survey/%d", e.Config.Seed), func() (*survey.Population, error) {
		return survey.Generate(e.Config.Seed), nil
	})
	return pop
}

// BlockingSurvey returns the §6.2 survey result under the given
// detector. One survey per (seed, sites) probes every site once and
// tallies it under both detectors, so the active-blocking experiment and
// the detector ablation share a single probe pass.
func (e *Env) BlockingSurvey(ctx context.Context, opts blocking.DetectorOptions) (*blocking.SurveyResult, error) {
	key := fmt.Sprintf("blocking/%d/%d", e.Config.Seed, e.Config.BlockingSites)
	res, err := memo(e, key, func() (*blocking.Tallies, error) {
		return blocking.RunSurvey(ctx, e.Config.BlockingSites, e.Config.Seed, e.Config.effectiveWorkers())
	})
	if err != nil {
		return nil, err
	}
	return res.Under(opts), nil
}

// InferenceSurvey returns the shared §6.3 Cloudflare inference survey.
func (e *Env) InferenceSurvey(ctx context.Context) (*blocking.CFSurveyResult, error) {
	key := fmt.Sprintf("cf-inference/%d/%d", e.Config.Seed, e.Config.CloudflareSites)
	return memo(e, key, func() (*blocking.CFSurveyResult, error) {
		return blocking.RunInferenceSurvey(ctx, e.Config.CloudflareSites, e.Config.Seed, e.Config.effectiveWorkers())
	})
}

// scenario returns the result of one counterfactual simulation, memoized
// by the spec's full identity: re-running or re-rendering an experiment
// within one engine run never repeats a simulation. Each scenario
// experiment currently declares distinct worlds, so distinct experiments
// do not share runs. HotSites stays at its zero value: the result is
// identical at any value, and pinning a live-HTTP cohort would only make
// the registry slower.
func (e *Env) scenario(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
	key := "scenario/" + spec.CacheKey()
	return memo(e, key, func() (*scenario.Result, error) {
		return scenario.RunTiered(ctx, spec, scenario.TierOptions{Workers: e.Config.effectiveWorkers()})
	})
}

// policySnapshot returns the compiled policyd serving index for one
// corpus snapshot, built over the shared corpus and memoized per
// (seed, scale, snapshot) — hot-reload experiments that swap between
// months compile each month once per engine run.
func (e *Env) policySnapshot(ctx context.Context, snap int) (*policyd.Snapshot, error) {
	key := fmt.Sprintf("policyd/%d/%g/%d", e.Config.Seed, e.Config.Scale, snap)
	return memo(e, key, func() (*policyd.Snapshot, error) {
		c, err := e.Corpus(ctx)
		if err != nil {
			return nil, err
		}
		return policyd.FromCorpus(ctx, c, snap, e.Config.Workers)
	})
}

// PassiveMeasurement returns the shared §5 passive study result.
func (e *Env) PassiveMeasurement(ctx context.Context) (*measure.PassiveResult, error) {
	return memo(e, fmt.Sprintf("passive/%d", e.Config.Seed), func() (*measure.PassiveResult, error) {
		return measure.RunPassive(ctx, e.Config.Seed)
	})
}

// ActiveMeasurement returns the shared §5.2.2 active study result.
func (e *Env) ActiveMeasurement(ctx context.Context) (*measure.ActiveResult, error) {
	return memo(e, fmt.Sprintf("active/%d/%d", e.Config.Seed, e.Config.Apps), func() (*measure.ActiveResult, error) {
		return measure.RunActive(ctx, e.Config.Seed, e.Config.Apps)
	})
}
