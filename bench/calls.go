package main

import (
	"bytes"
	"fmt"
	"time"
)

// callWorkload is a workload whose call is one whole run of an engine:
// the simulation and registry workloads.
type callWorkload struct {
	// span names the span around each call.
	span string
	// precheck proves, before any timing, that the engine's output does
	// not depend on how its work is split.
	precheck func() error
	// warm is one set-up.
	warm func() (time.Duration, error)
	// call runs the engine once and returns its wall time, its output
	// (or a digest of it) and the units of work it did. Every call must
	// give the same output.
	call func() (wall time.Duration, output []byte, work int64, err error)
}

// runCalls is one run of such a workload: the pre-check, the set-ups,
// then calls until seconds have passed — at least three (one when
// traced), and never one the interval has no room left for — with a
// speedometer sample before each, which also collects the garbage of the
// call before. A call whose output differs from the first fails all its
// work.
func runCalls(sz sizes, seconds float64, tr *tracer, w callWorkload) (*result, error) {
	r := &result{}
	t := time.Now()
	if err := w.precheck(); err != nil {
		return nil, fmt.Errorf("pre-check: %w", err)
	}
	precheck := time.Since(t)

	sp := newSpeedometer(sz)
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		sp.sample()
		wall, err := w.warm()
		if err != nil {
			return nil, err
		}
		setups = append(setups, wall.Seconds())
	}

	minCalls := 3
	if tr != nil {
		minCalls = 1
	}
	var walls []float64
	var ref []byte
	var work int64
	for start := time.Now(); ; {
		sp.sample()
		id := tr.begin(w.span, -1, int64(len(walls)))
		wall, out, n, err := w.call()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		work = n
		r.attempted += n
		if len(walls) == 0 {
			ref = out
		} else if !bytes.Equal(out, ref) {
			r.failed += n
		}
		walls = append(walls, wall.Seconds())
		if len(walls) >= minCalls && time.Since(start).Seconds()+wall.Seconds() > seconds {
			break
		}
	}
	sp.sample()

	// With a handful of calls the highest percentile that has ten samples
	// beyond it is the median itself, and that is what call_p90_us then
	// reports; the note says so.
	q := supportedQuantile(len(walls), 0.9)
	m := median(walls)
	p90 := m
	if q > 0.5 {
		p90 = quantile(sortedCopy(walls), q)
	}
	r.metrics = values{
		"work_per_s":  float64(work) / m,
		"call_p50_us": m * 1e6,
		"call_p90_us": p90 * 1e6,
		"setup_s":     median(setups),
	}
	r.notef("%d calls, wall %v s; call_p90_us reports p%.0f (the highest percentile with %d samples beyond it)",
		len(walls), walls, q*100, minBeyond)
	r.normalise(sp)
	r.diag("bench.precheck_s", precheck.Seconds(), "s")
	return r, nil
}
