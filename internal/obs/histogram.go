package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count. Bucket 0 holds values <= 1;
// bucket i (i >= 1) holds values in (2^(i-1), 2^i]; the last bucket
// additionally absorbs everything beyond 2^62. 64 power-of-two buckets
// cover 1ns..~4.6e18, i.e. any duration or byte size the repo can
// produce, with <2x relative error — plenty for tail-latency work.
const histBuckets = 64

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(v - 1) // v in (2^(b-1), 2^b]
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histShard is one shard's buckets plus a running sum, padded so
// adjacent shards never false-share. Counts and sum are monotone, so
// readers get a consistent-enough view from plain atomic loads.
type histShard struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	_       [56]byte
}

// Histogram is a fixed-bucket power-of-two histogram of uint64 samples
// (nanoseconds, bytes, batch sizes). Observe is 0 allocs and a handful
// of nanoseconds. The zero value is not usable; obtain one from a
// Registry (or NewHistogram).
type Histogram struct {
	shards []histShard
}

func newHistogram() *Histogram { return &Histogram{shards: make([]histShard, nShards)} }

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	var i uint32
	if shardMask != 0 {
		i = shardIdx()
	}
	s := &h.shards[i]
	s.buckets[bucketOf(v)].Add(1)
	s.sum.Add(v)
}

// ObserveSince records the elapsed nanoseconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(uint64(time.Since(start)))
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Snapshot sums the shards. Concurrent Observes may land between shard
// reads; the result is a valid snapshot of some interleaving.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < histBuckets; b++ {
			s.Buckets[b] += sh.buckets[b].Load()
		}
		s.Sum += sh.sum.Load()
	}
	for b := 0; b < histBuckets; b++ {
		s.Count += s.Buckets[b]
	}
	return s
}

// Sub returns the delta snapshot s - prev (counts and sum subtract
// bucket-wise), for measuring one phase of a longer-lived histogram.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	for b := 0; b < histBuckets; b++ {
		d.Buckets[b] = s.Buckets[b] - prev.Buckets[b]
	}
	return d
}

// bucketUpper returns the inclusive upper bound of bucket i (2^i,
// saturating at MaxUint64 for the overflow bucket).
func bucketUpper(i int) uint64 {
	if i >= 63 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// bucketLower returns the exclusive lower bound of bucket i.
func bucketLower(i int) uint64 {
	if i == 0 {
		return 0
	}
	return uint64(1) << uint(i-1)
}

// Quantile returns the bucket bounds (lo, hi] containing the q-th
// quantile sample, using the same rank definition as cmd/loadgen's
// reservoir percentiles: the element at index q*(count-1) of the sorted
// samples. On an empty snapshot both bounds are 0.
func (s HistSnapshot) Quantile(q float64) (lo, hi uint64) {
	if s.Count == 0 {
		return 0, 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1)) // 0-based index into sorted samples
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += s.Buckets[b]
		if cum > rank {
			return bucketLower(b), bucketUpper(b)
		}
	}
	return bucketLower(histBuckets - 1), bucketUpper(histBuckets - 1)
}

// Mean returns the average observed value, 0 if empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
