package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Options configures RunAll.
type Options struct {
	// Parallelism bounds how many experiments run concurrently; values
	// below 1 mean sequential. Output is byte-identical at any setting:
	// experiments only share state through the Env cache, and results are
	// emitted in registration order.
	Parallelism int
	// IDs selects a subset of experiments. Unknown IDs fail the run
	// before anything executes; nil means every registered experiment.
	// Experiments run and emit in registration order regardless of the
	// order IDs are given in.
	IDs []string
	// Sink receives each successful result in registration order as soon
	// as it and all its predecessors have completed. nil discards output.
	Sink Sink
}

// RunAll executes the selected experiments against one shared Env,
// scheduling them on a bounded worker pool. The returned slice is in
// registration order; entries whose experiment failed are nil, and the
// error joins every per-experiment failure (including cancellations).
// Each experiment's wall time is observed in core_experiment_wall_ns.
func RunAll(ctx context.Context, cfg Config, opts Options) ([]*Result, error) {
	return NewEnv(cfg).runAll(ctx, opts)
}

// runAll is RunAll against an existing Env.
func (env *Env) runAll(ctx context.Context, opts Options) ([]*Result, error) {
	exps, err := selectExperiments(opts.IDs)
	if err != nil {
		return nil, err
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(exps) {
		workers = len(exps)
	}

	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
				} else {
					start := time.Now()
					results[i], errs[i] = exps[i].Run(ctx, env)
					wallClock(exps[i].ID).ObserveSince(start)
				}
				close(done[i])
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range exps {
			jobs <- i
		}
	}()

	// Emit in registration order as completions arrive; a parallel run
	// produces exactly the sequence a sequential run would.
	sink := opts.Sink
	var failures []error
	for i := range exps {
		<-done[i]
		if errs[i] != nil {
			failures = append(failures, fmt.Errorf("%s: %w", exps[i].ID, errs[i]))
			continue
		}
		if sink == nil {
			continue
		}
		if err := sink.Emit(results[i]); err != nil {
			failures = append(failures, fmt.Errorf("emit %s: %w", exps[i].ID, err))
			sink = nil // the writer is broken; stop emitting
		}
	}
	wg.Wait()
	return results, errors.Join(failures...)
}

// selectExperiments resolves an ID subset against the registry,
// preserving registration order.
func selectExperiments(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return Experiments(), nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := byID(id); !ok {
			return nil, fmt.Errorf("core: unknown experiment %q", id)
		}
		want[id] = true
	}
	var out []Experiment
	for _, e := range Experiments() {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
