// Package obs is the repository's observability core: dependency-free,
// allocation-free metrics for the serving and simulation hot paths.
//
// Offline benchmark runs validate the performance work (netsim's
// in-process HTTP, farm hosting, the policyd frame protocol), but cannot
// say what a running daemon or scenario is doing right now. obs closes that gap
// with three primitives sized for hot paths that already fought for
// every allocation:
//
//   - Counter: a monotonically increasing count, sharded across padded
//     per-P-ish cells so concurrent Adds never share a cache line.
//   - Gauge: a float64 point-in-time value (active connections, GC mark
//     seconds sampled from runtime/metrics).
//   - Histogram: a fixed 64-bucket power-of-two latency/size histogram —
//     bucket i holds values in (2^(i-1), 2^i] — sharded like counters.
//
// All record paths (Add, Inc, Set, Observe) perform zero allocations and
// cost a few nanoseconds. They always record, so every binary, test and
// benchmark measures the same code.
//
// Metrics register in a Registry (usually Default, via the package-level
// NewCounter/NewGauge/NewHistogram constructors) which renders the
// Prometheus text exposition format and JSON. Registration is meant for
// package init: construct once, record forever.
package obs

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// nShards is the power-of-two shard count record paths spread over,
// sized to the machine's parallelism at startup and capped so idle
// metrics stay small.
var nShards = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n > 64 {
		n = 64
	}
	return n
}()

var shardMask = uint32(nShards - 1)

// shardIdx picks this goroutine's shard. Goroutine stacks live at
// distinct addresses, so hashing the address of a stack variable spreads
// concurrent writers across shards without runtime internals or
// goroutine IDs; within one goroutine the index is stable enough that a
// tight record loop keeps hitting the same cache line.
func shardIdx() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint32(p>>10^p>>20) & shardMask
}

// pad64 is one cache-line-padded atomic cell.
type pad64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value
// is not usable; obtain one from a Registry (or NewCounter).
type Counter struct {
	shards []pad64
}

func newCounter() *Counter { return &Counter{shards: make([]pad64, nShards)} }

// Add increments the counter by n. It never allocates. Single-shard
// registries (the common case on small GOMAXPROCS) skip the shard hash
// entirely.
func (c *Counter) Add(n uint64) {
	var i uint32
	if shardMask != 0 {
		i = shardIdx()
	}
	c.shards[i].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is a float64 point-in-time value. Writes are atomic; Add is a
// CAS loop, fine for the per-connection and per-sample rates gauges see.
// The zero value is not usable; obtain one from a Registry (or NewGauge).
type Gauge struct {
	bits atomic.Uint64
}

func newGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(floatBits(v))
}

// Add adds delta to the gauge (negative deltas decrement).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// floatBits/bitsFloat are math.Float64bits/Float64frombits without the
// import (kept local so the package's dependency list stays flat).
func floatBits(f float64) uint64 { return *(*uint64)(unsafe.Pointer(&f)) }
func bitsFloat(b uint64) float64 { return *(*float64)(unsafe.Pointer(&b)) }
