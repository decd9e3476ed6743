package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedQuantile returns the highest quantile not above want that
// still has at least minBeyond of n samples beyond it, and never less
// than the median: with too few samples the median is all there is.
func supportedQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median averages the two middle values of an even-sized sample, as
// Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver uses to judge a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return median(xs), median(xs)
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// sample is one completed call of a closed-loop caller.
type sample struct {
	end       time.Duration // completion time since the run started
	lat       time.Duration // send to last byte decoded
	decisions int32
	failed    bool
}

// windowStat is what one window of completed calls measured.
type windowStat struct {
	calls               int
	perS                float64 // decisions per second
	p50us, p90us, p99us float64
}

// windowStats buckets samples by completion time into whole windows of
// the given width inside [0, total) and drops the partial tail, so every
// window saw the same load.
func windowStats(samples []sample, width, total time.Duration) []windowStat {
	n := int(total / width)
	if n == 0 {
		return nil
	}
	lats := make([][]float64, n)
	decisions := make([]int64, n)
	for _, s := range samples {
		w := int(s.end / width)
		if w < 0 || w >= n || s.failed {
			continue
		}
		lats[w] = append(lats[w], float64(s.lat)/1e3)
		decisions[w] += int64(s.decisions)
	}
	out := make([]windowStat, 0, n)
	for w := range lats {
		l := lats[w]
		sort.Float64s(l)
		out = append(out, windowStat{
			calls: len(l),
			perS:  float64(decisions[w]) / width.Seconds(),
			p50us: quantile(l, 0.5),
			p90us: quantile(l, supportedQuantile(len(l), 0.9)),
			p99us: quantile(l, supportedQuantile(len(l), 0.99)),
		})
	}
	return out
}

// roundStat is a run's value: the median window, statistic by statistic.
type roundStat struct {
	windows        int
	callsPerWindow float64
	perS           float64
	p50us          float64
	p90us          float64
	p99us          float64
	// disturbedShare is the share of windows whose throughput fell under
	// 0.8x the median window's: neighbours stealing the cores.
	disturbedShare float64
}

func medianWindow(ws []windowStat) roundStat {
	col := func(f func(windowStat) float64) []float64 {
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = f(w)
		}
		return xs
	}
	r := roundStat{
		windows:        len(ws),
		callsPerWindow: median(col(func(w windowStat) float64 { return float64(w.calls) })),
		perS:           median(col(func(w windowStat) float64 { return w.perS })),
		p50us:          median(col(func(w windowStat) float64 { return w.p50us })),
		p90us:          median(col(func(w windowStat) float64 { return w.p90us })),
		p99us:          median(col(func(w windowStat) float64 { return w.p99us })),
	}
	slow := 0
	for _, w := range ws {
		if w.perS < 0.8*r.perS {
			slow++
		}
	}
	if len(ws) > 0 {
		r.disturbedShare = float64(slow) / float64(len(ws))
	}
	return r
}

// dist summarises the timings of one ladder rung.
type dist struct {
	n        int
	p50, p90 float64
}

func newDist(xs []float64) dist {
	s := sortedCopy(xs)
	return dist{n: len(s), p50: quantile(s, 0.5), p90: quantile(s, supportedQuantile(len(s), 0.9))}
}
