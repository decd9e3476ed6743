package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// runAll is one call into the experiment engine, NDJSON to a buffer.
func runAll(ctx context.Context, cfg core.Config, parallelism int, ids []string) (time.Duration, []byte, int, error) {
	var buf bytes.Buffer
	t := time.Now()
	results, err := core.RunAll(ctx, cfg, core.Options{Parallelism: parallelism, IDs: ids, Sink: core.NewJSONSink(&buf)})
	return time.Since(t), buf.Bytes(), len(results), err
}

// registryPrecheck proves on a small configuration that the engine's
// output does not depend on how many experiments run at once.
func registryPrecheck(ctx context.Context, sz sizes, seed int64) error {
	cfg := sz.registryCheck
	cfg.Seed = seed
	_, a, _, err := runAll(ctx, cfg, 1, sz.registryIDs)
	if err != nil {
		return err
	}
	_, b, _, err := runAll(ctx, cfg, 2, sz.registryIDs)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("core.RunAll NDJSON differs between Parallelism 1 and 2")
	}
	return nil
}

// runRegistry is one run of the registry workload.
func runRegistry(ctx context.Context, sz sizes, seed int64, seconds float64, tr *tracer) (*result, error) {
	// Set-up is a warm-up run at the pre-check's size, which fills the
	// process-wide robots parse cache and netsim's buffer pools.
	warm, cfg := sz.registryCheck, sz.registry
	warm.Seed, cfg.Seed = seed, seed
	nproc := runtime.GOMAXPROCS(0)
	experiments := 0
	r, err := runCalls(sz, seconds, tr, callWorkload{
		span:     "core.RunAll",
		precheck: func() error { return registryPrecheck(ctx, sz, seed) },
		warm: func() (time.Duration, error) {
			wall, _, _, err := runAll(ctx, warm, nproc, sz.registryIDs)
			return wall, err
		},
		call: func() (time.Duration, []byte, int64, error) {
			wall, out, n, err := runAll(ctx, cfg, nproc, sz.registryIDs)
			experiments = n
			return wall, out, int64(n), err
		},
	})
	if err != nil {
		return nil, err
	}
	r.notef("unit of work: experiment; call: one core.RunAll of %d experiments (scale %g, %d blocking sites, %d Cloudflare sites, %d apps), Parallelism %d, NDJSON compared across calls",
		experiments, cfg.Scale, cfg.BlockingSites, cfg.CloudflareSites, cfg.Apps, nproc)
	return r, nil
}
