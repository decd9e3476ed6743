// Package stats provides small deterministic statistics and randomness
// helpers shared by the measurement substrates.
//
// Every stochastic component in this repository draws randomness through
// stats.Rand seeded explicitly, so all experiments are reproducible
// bit-for-bit across runs and machines.
package stats

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// DefaultSeed is the seed used by experiments unless overridden. It encodes
// the IMC '25 conference start date (October 28, 2025).
const DefaultSeed int64 = 20251028

// Rand is a deterministic random source. It wraps math/rand.Rand over a
// lazily seeded source with math/rand's own stream, and adds the sampling
// helpers the generators need. Rand is not safe for concurrent use; derive
// per-goroutine sources with Fork.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source seeded with seed. Its stream is
// math/rand.NewSource(seed)'s, value for value, but a Rand is a few words
// and costs nothing to seed until its 274th draw (see source), so one
// Rand per site, host or fork is cheap.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(newSource(seed))}
}

// Seed resets rn to the exact state NewRand(seed) starts in, without
// allocating: a caller drawing a few values from each of millions of
// per-item seeds reuses one Rand instead of allocating one per item.
func (rn *Rand) Seed(seed int64) { rn.r.Seed(seed) }

// Fork derives an independent stream labeled by name. Two forks of the same
// parent with different names produce uncorrelated streams; forking is
// stable across runs.
func (rn *Rand) Fork(name string) *Rand {
	return NewRand(rn.ForkSeed(name))
}

// ForkSeed returns the seed Fork(name) would use, consuming one parent
// draw exactly as Fork does. Callers that need millions of sibling
// streams derive the 8-byte seeds in order and Seed one reused Rand with
// each, instead of holding every fork live (a fork that draws more than
// 273 values grows to math/rand's 4.9 KB state).
func (rn *Rand) ForkSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	return rn.r.Int63() ^ h
}

// Float64 returns a uniform value in [0, 1).
func (rn *Rand) Float64() float64 { return rn.r.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (rn *Rand) Intn(n int) int { return rn.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (rn *Rand) Int63() int64 { return rn.r.Int63() }

// Bool returns true with probability p.
func (rn *Rand) Bool(p float64) bool { return rn.r.Float64() < p }

// NormFloat64 returns a normally distributed value with the given mean and
// standard deviation.
func (rn *Rand) NormFloat64(mean, stddev float64) float64 {
	return rn.r.NormFloat64()*stddev + mean
}

// Perm returns a pseudo-random permutation of [0, n).
func (rn *Rand) Perm(n int) []int { return rn.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (rn *Rand) Shuffle(n int, swap func(i, j int)) { rn.r.Shuffle(n, swap) }

// WeightedIndex samples an index proportionally to weights. Negative
// weights are treated as zero. If all weights are zero it returns 0.
func (rn *Rand) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := rn.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Poisson samples a Poisson-distributed count with the given mean using
// Knuth's method; suitable for the small means the generators use.
func (rn *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rn.r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1_000_000 { // guard against pathological means
			return k
		}
	}
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](rn *Rand, xs []T) T {
	return xs[rn.Intn(len(xs))]
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). If k >= n it returns all n indices. The result order is random.
func (rn *Rand) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return rn.Perm(n)
	}
	perm := rn.Perm(n)
	return perm[:k]
}

// Percent returns 100*num/den, or 0 when den is zero.
func Percent(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs, or 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// WilsonInterval returns the 95% Wilson score interval for k successes out
// of n trials, as (low, high) proportions in [0, 1].
func WilsonInterval(k, n int) (low, high float64) {
	if n == 0 {
		return 0, 0
	}
	const z = 1.959963984540054 // 97.5th percentile of the standard normal
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	margin := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	low = center - margin
	high = center + margin
	if low < 0 {
		low = 0
	}
	if high > 1 {
		high = 1
	}
	return low, high
}

// Point is one sample of a labeled time series.
type Point struct {
	// Time is the nominal timestamp of the sample (snapshot date).
	Time time.Time
	// Label is a human-readable x-axis label such as "Oct 2022".
	Label string
	// Value is the measured y value (often a percentage or a count).
	Value float64
}

// Series is a named sequence of points, the unit in which figures are
// reported.
type Series struct {
	Name   string
	Points []Point
}

// Last returns the final point of the series, or a zero Point when empty.
func (s Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Max returns the maximum point value, or 0 when empty.
func (s Series) Max() float64 {
	var m float64
	for i, p := range s.Points {
		if i == 0 || p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Sum returns the sum of all point values.
func (s Series) Sum() float64 {
	var t float64
	for _, p := range s.Points {
		t += p.Value
	}
	return t
}

// Sparkline renders the series as a unicode sparkline for terminal output.
// The result has one rune per point; an empty series yields "".
func (s Series) Sparkline() string {
	if len(s.Points) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := s.Points[0].Value, s.Points[0].Value
	for _, p := range s.Points {
		if p.Value < lo {
			lo = p.Value
		}
		if p.Value > hi {
			hi = p.Value
		}
	}
	out := make([]rune, 0, len(s.Points))
	for _, p := range s.Points {
		idx := 0
		if hi > lo {
			idx = int((p.Value - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		out = append(out, ticks[idx])
	}
	return string(out)
}

// Counter tallies occurrences of string keys and reports them in
// deterministic order.
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int)} }

// Add increments key by n.
func (c *Counter) Add(key string, n int) { c.counts[key] += n }

// Inc increments key by one.
func (c *Counter) Inc(key string) { c.counts[key]++ }

// Get returns the tally for key.
func (c *Counter) Get(key string) int { return c.counts[key] }

// Total returns the sum of all tallies.
func (c *Counter) Total() int {
	var t int
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.counts) }

// Entry is a key with its tally.
type Entry struct {
	Key   string
	Count int
}

// Sorted returns entries ordered by descending count, ties broken by key.
func (c *Counter) Sorted() []Entry {
	out := make([]Entry, 0, len(c.counts))
	for k, n := range c.counts {
		out = append(out, Entry{k, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Keys returns all keys in lexical order.
func (c *Counter) Keys() []string {
	out := make([]string, 0, len(c.counts))
	for k := range c.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
