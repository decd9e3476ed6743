package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/scenario"
)

// simSpec is one simulation workload: an observed-world run and how
// much of it is pinned hot.
type simSpec struct {
	sites, months, hot int
}

func simSpecs(sz sizes) map[string]simSpec {
	return map[string]simSpec{
		wlSimHot:  {sites: sz.simHotSites, months: sz.simMonths, hot: sz.simHotSites},
		wlSimTail: {sites: sz.simTailSites, months: sz.simMonths, hot: sz.simTailHot},
	}
}

// runTiered is one call into the engine; the digest of the result's
// JSON is what correctness compares.
func runTiered(ctx context.Context, seed int64, s simSpec, workers int, st *scenario.TierStats) (time.Duration, []byte, error) {
	t := time.Now()
	res, err := scenario.RunTiered(ctx, scenario.Observed(seed, s.sites, s.months),
		scenario.TierOptions{HotSites: s.hot, Workers: workers, Stats: st})
	wall := time.Since(t)
	if err != nil {
		return wall, nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return wall, nil, err
	}
	digest := sha256.Sum256(b)
	return wall, digest[:], nil
}

// simPrecheck proves on a small world that the engine's output does not
// depend on the tier split or the worker count: everything cold, every
// site hot, and every site hot on one worker must agree byte for byte.
func simPrecheck(ctx context.Context, sz sizes, seed int64) error {
	n := sz.simCheckSites
	var ref []byte
	for i, v := range []struct{ hot, workers int }{{0, 2}, {n, 2}, {n, 1}} {
		_, d, err := runTiered(ctx, seed, simSpec{sites: n, months: sz.simMonths, hot: v.hot}, v.workers, nil)
		if err != nil {
			return err
		}
		if i == 0 {
			ref = d
		} else if !bytes.Equal(d, ref) {
			return fmt.Errorf("RunTiered at %d sites: hot=%d workers=%d differs from hot=0 workers=2", n, v.hot, v.workers)
		}
	}
	return nil
}

// runSim is one run of a simulation workload.
func runSim(ctx context.Context, sz sizes, name string, seed int64, seconds float64, tr *tracer) (*result, error) {
	spec := simSpecs(sz)[name]
	// Set-up is a warm-up run at a tenth of the size: it fills the
	// process-wide robots parse cache and netsim's buffer pools, as the
	// first months of any real run would.
	warm := simSpec{sites: max(spec.sites/10, 2), months: spec.months, hot: max(spec.hot/10, 1)}
	var st scenario.TierStats
	r, err := runCalls(sz, seconds, tr, callWorkload{
		span:     "scenario.RunTiered",
		precheck: func() error { return simPrecheck(ctx, sz, seed) },
		warm: func() (time.Duration, error) {
			wall, _, err := runTiered(ctx, seed, warm, 0, nil)
			return wall, err
		},
		call: func() (time.Duration, []byte, int64, error) {
			wall, digest, err := runTiered(ctx, seed, spec, 0, &st)
			return wall, digest, int64(spec.sites * spec.months), err
		},
	})
	if err != nil {
		return nil, err
	}
	r.notef("unit of work: site-month; call: one scenario.RunTiered(Observed(seed, %d, %d), HotSites %d), workers %d",
		spec.sites, spec.months, spec.hot, runtime.GOMAXPROCS(0))
	r.notef("%d hot and %d cold site-months a call, %d promotions; result JSON digest compared across calls",
		st.HotSiteMonths, st.ColdSiteMonths, st.Promotions)
	return r, nil
}
