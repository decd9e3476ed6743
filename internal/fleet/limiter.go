package fleet

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Per-tenant token-bucket rate limiting at the gateway edge. The tenant
// key is the query's agent identity — the loadgen/crawler User-Agent —
// so one misbehaving crawler exhausts its own bucket without touching
// anyone else's, the same isolation a production API gateway applies
// per API key.

// TenantCount pairs a tenant with the number of decisions one batch
// asks for on its behalf.
type TenantCount struct {
	Tenant string
	N      int
}

// TenantQuota is one tenant's end-of-run accounting line. The JSON
// shape is the /v1/quotas wire contract and the runstore quotas
// segment.
type TenantQuota struct {
	Tenant    string `json:"tenant"`
	Granted   uint64 `json:"granted"`
	Throttled uint64 `json:"throttled"`
}

// Accounting is the gateway's full quota ledger.
type Accounting struct {
	// Rate and Burst echo the limiter configuration (tokens/sec and
	// bucket depth per tenant); Rate 0 means accounting-only.
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst"`
	// Tenants is sorted by tenant name for deterministic output.
	Tenants []TenantQuota `json:"tenants"`
}

// Limiter meters decisions per tenant with token buckets refilled at
// rate tokens/sec up to burst, and keeps granted/throttled accounting
// either way. rate <= 0 disables limiting (every batch admitted,
// accounting still kept). The clock is injectable for deterministic
// tests; nil means time.Now.
type Limiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	now     func() time.Time
	tenants map[string]*bucket
}

type bucket struct {
	tokens    float64
	last      time.Time
	granted   uint64
	throttled uint64
}

// NewLimiter returns a limiter. burst <= 0 defaults to one second of
// rate. A batch larger than burst can never be admitted, so callers
// must size burst at or above their maximum batch (NewGateway, which
// cmd/policyd -replicas uses, defaults it to max(rate, 2×MaxBatch)).
func NewLimiter(rate, burst float64, now func() time.Time) *Limiter {
	if now == nil {
		now = time.Now
	}
	if burst <= 0 {
		burst = rate
	}
	return &Limiter{rate: rate, burst: burst, now: now, tenants: make(map[string]*bucket)}
}

// Admit atomically charges every tenant group of one batch, or charges
// nothing: a batch is answered from one snapshot at one admission
// point, so partial admission would force splitting it. On rejection it
// returns ok=false and the longest wait after which every group could
// fit (its Retry-After), and books the whole batch as throttled.
func (l *Limiter) Admit(groups []TenantCount) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 {
		for _, g := range groups {
			l.bucket(g.Tenant).granted += uint64(g.N)
		}
		return 0, true
	}
	t := l.now()
	var wait time.Duration
	for _, g := range groups {
		bk := l.bucket(g.Tenant)
		bk.refill(t, l.rate, l.burst)
		if deficit := float64(g.N) - bk.tokens; deficit > 0 {
			w := time.Duration(deficit / l.rate * float64(time.Second))
			if w > wait {
				wait = w
			}
		}
	}
	if wait > 0 {
		for _, g := range groups {
			l.bucket(g.Tenant).throttled += uint64(g.N)
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		return wait, false
	}
	for _, g := range groups {
		bk := l.tenants[g.Tenant]
		bk.tokens -= float64(g.N)
		bk.granted += uint64(g.N)
	}
	return 0, true
}

// bucket returns (creating if needed) the tenant's bucket. Callers hold
// l.mu.
func (l *Limiter) bucket(tenant string) *bucket {
	bk := l.tenants[tenant]
	if bk == nil {
		bk = &bucket{tokens: l.burst}
		// Frame-wire tenant strings alias the connection's reusable
		// payload buffer (policyd.DecodeQueryPayload is zero-copy); the
		// map key outlives the frame, so it must own its bytes.
		l.tenants[strings.Clone(tenant)] = bk
	}
	return bk
}

func (bk *bucket) refill(t time.Time, rate, burst float64) {
	if bk.last.IsZero() {
		bk.last = t
		return
	}
	if dt := t.Sub(bk.last); dt > 0 {
		bk.tokens += rate * dt.Seconds()
		if bk.tokens > burst {
			bk.tokens = burst
		}
		bk.last = t
	}
}

// Accounting returns the ledger, tenants sorted by name.
func (l *Limiter) Accounting() Accounting {
	l.mu.Lock()
	defer l.mu.Unlock()
	acc := Accounting{Rate: l.rate, Burst: l.burst, Tenants: make([]TenantQuota, 0, len(l.tenants))}
	if l.rate <= 0 {
		acc.Burst = 0
	}
	for name, bk := range l.tenants {
		acc.Tenants = append(acc.Tenants, TenantQuota{Tenant: name, Granted: bk.granted, Throttled: bk.throttled})
	}
	sort.Slice(acc.Tenants, func(i, j int) bool { return acc.Tenants[i].Tenant < acc.Tenants[j].Tenant })
	return acc
}
