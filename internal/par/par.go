// Package par provides the bounded fork-join helper the substrate
// packages use to parallelize their hot loops. Work is split into
// contiguous shards so callers can keep per-shard accumulators and merge
// them with commutative operations, which keeps results independent of
// scheduling and of the worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// shardsPerWorker over-partitions the range so a slow shard does not
// leave the other workers idle at the tail.
const shardsPerWorker = 4

// inlineShard bounds how much work runs between cancellation checks when
// executing inline (workers <= 1).
const inlineShard = 1024

// clamp bounds a worker count by GOMAXPROCS: the pools in this
// repository are CPU-bound (in-memory networks, parsing, sampling), so
// goroutines beyond the core count only add scheduling overhead — on a
// 1-CPU runner, workers>1 used to be strictly slower than inline
// execution. Results never depend on worker counts, so clamping is
// always safe. Non-positive counts clamp to 1.
func clamp(workers int) int {
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Do runs fn over [0, n) split into contiguous [start, end) shards.
// With workers <= 1 (after the GOMAXPROCS clamp) the shards run inline
// on the calling goroutine; otherwise they are distributed over a
// bounded pool. Cancellation is checked between shards: Do returns
// ctx.Err() as soon as it is observed, without waiting for the
// remaining shards to be claimed. fn must be safe to call concurrently
// on disjoint shards.
func Do(ctx context.Context, workers, n int, fn func(start, end int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = clamp(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for start := 0; start < n; start += inlineShard {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(start, min(start+inlineShard, n))
		}
		return ctx.Err()
	}

	shards := workers * shardsPerWorker
	size := (n + shards - 1) / shards
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(1)-1) * size
				if start >= n || ctx.Err() != nil {
					return
				}
				fn(start, min(start+size, n))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
