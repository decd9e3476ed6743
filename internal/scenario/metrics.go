package scenario

import (
	"sort"
	"time"

	"repro/internal/measure"
	"repro/internal/stats"
)

// verdictClasses is the number of measure.Verdict values; ClassCounts is
// indexed by Verdict.
const verdictClasses = int(measure.Anomalous) + 1

// MonthMetrics is one virtual month of ecosystem-wide measurements. All
// fields merge by addition across site shards, so fleet-scale results
// are independent of scheduling and worker count.
type MonthMetrics struct {
	// Month is the tick index; Label and Date locate it on the calendar.
	Month int
	Label string
	Date  time.Time

	// AdoptedSites counts sites whose robots.txt restricts AI crawlers
	// by the end of the month; ManagedSites the subset on a managed
	// service; ActiveBlockers the sites with provider blocking enabled.
	AdoptedSites   int
	ManagedSites   int
	ActiveBlockers int

	// Visits counts crawl waves; RobotsFetches counts robots.txt
	// requests observed in the logs.
	Visits        int
	RobotsFetches int

	// ClassCounts tallies per-(crawler, site) monthly verdict
	// classifications on policy-bearing sites, indexed by
	// measure.Verdict.
	ClassCounts [verdictClasses]int

	// DisallowedBytes is content served from paths the site's robots.txt
	// disallowed for the fetching agent — the ground-truth violation
	// volume. AllowedBytes is everything else served with HTTP 200.
	DisallowedBytes int64
	AllowedBytes    int64

	// BlockedRequests counts requests the active-blocking provider
	// denied.
	BlockedRequests int

	// GapMissing and GapAnnounced accumulate the static rule-list
	// coverage gap over adopted sites (GapSites of them) as integer
	// tallies — announced-but-uncovered agents and announced agents —
	// rather than a float sum of per-site fractions. The announced count
	// is the same for every site within a month, so StaticGap's
	// missing/announced ratio equals the old per-site mean, and keeping
	// every field integral makes merges exactly order-free: hot, cold,
	// sharded, and sequential runs are bit-identical, not
	// almost-identical up to float association.
	GapMissing   int
	GapAnnounced int
	GapSites     int
}

// add merges another shard's metrics for the same month.
func (m *MonthMetrics) add(o MonthMetrics) {
	m.AdoptedSites += o.AdoptedSites
	m.ManagedSites += o.ManagedSites
	m.ActiveBlockers += o.ActiveBlockers
	m.Visits += o.Visits
	m.RobotsFetches += o.RobotsFetches
	for i := range m.ClassCounts {
		m.ClassCounts[i] += o.ClassCounts[i]
	}
	m.DisallowedBytes += o.DisallowedBytes
	m.AllowedBytes += o.AllowedBytes
	m.BlockedRequests += o.BlockedRequests
	m.GapMissing += o.GapMissing
	m.GapAnnounced += o.GapAnnounced
	m.GapSites += o.GapSites
}

// Classified returns how many (crawler, site) windows were classified
// this month.
func (m MonthMetrics) Classified() int {
	n := 0
	for _, c := range m.ClassCounts {
		n += c
	}
	return n
}

// RespectRate is the fraction of classified windows in the Respected
// class, in [0, 1].
func (m MonthMetrics) RespectRate() float64 {
	if n := m.Classified(); n > 0 {
		return float64(m.ClassCounts[measure.Respected]) / float64(n)
	}
	return 0
}

// StaticGap is the mean coverage gap of the adopted sites' rule lists:
// the fraction of announced blockable agents their robots.txt misses.
func (m MonthMetrics) StaticGap() float64 {
	if m.GapAnnounced == 0 {
		return 0
	}
	return float64(m.GapMissing) / float64(m.GapAnnounced)
}

// Result is one completed scenario run.
type Result struct {
	// Spec is the fully defaulted spec that ran.
	Spec Spec
	// StartDate anchors the virtual clock.
	StartDate time.Time
	// Months holds one metrics row per virtual month.
	Months []MonthMetrics
	// Verdicts classifies each observed product token over the whole
	// run, from evidence aggregated across every policy-bearing site —
	// the Table 1 classes, derived from simulated server logs alone.
	Verdicts map[string]measure.Verdict

	// Run-level totals.
	TotalVisits          int
	TotalDisallowedBytes int64
	TotalBlockedRequests int
}

// newResult allocates the month skeleton for a defaulted spec.
func newResult(sp Spec, start time.Time) *Result {
	res := &Result{Spec: sp, StartDate: start, Months: make([]MonthMetrics, sp.Months)}
	for m := range res.Months {
		d := start.AddDate(0, m, 0)
		res.Months[m] = MonthMetrics{Month: m, Label: d.Format("Jan 2006"), Date: d}
	}
	return res
}

// An Observer receives a run's semantic outputs as the engine finalizes
// them: one ObserveMonth call per merged month in month order, then one
// ObserveResult with the completed result. The hooks fire from the
// finalize path, so an observer — the runstore writer is the canonical
// one — sees identical streams at any HotSites value and worker count.
// Observers run on the finalizing goroutine after the parallel pass has
// joined; they need no locking of their own.
type Observer interface {
	ObserveMonth(m MonthMetrics)
	ObserveResult(r *Result)
}

// finalize classifies the merged run-wide evidence, computes the
// run-level totals from the merged months, and streams the finished
// months and result to the observer, if any.
func (r *Result) finalize(evidence map[string]measure.Evidence, ob Observer) {
	r.Verdicts = make(map[string]measure.Verdict, len(evidence))
	for tok, ev := range evidence {
		r.Verdicts[tok] = measure.ClassifyEvidence(ev)
	}
	for _, m := range r.Months {
		r.TotalVisits += m.Visits
		r.TotalDisallowedBytes += m.DisallowedBytes
		r.TotalBlockedRequests += m.BlockedRequests
	}
	if ob != nil {
		for _, m := range r.Months {
			ob.ObserveMonth(m)
		}
		ob.ObserveResult(r)
	}
}

// Tokens returns the observed product tokens, sorted.
func (r *Result) Tokens() []string {
	out := make([]string, 0, len(r.Verdicts))
	for tok := range r.Verdicts {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// series assembles a named monthly series from a per-month accessor.
func (r *Result) series(name string, f func(MonthMetrics) float64) stats.Series {
	s := stats.Series{Name: name}
	for _, m := range r.Months {
		s.Points = append(s.Points, stats.Point{Time: m.Date, Label: m.Label, Value: f(m)})
	}
	return s
}

// AdoptionSeries is the percentage of sites with an AI-restricting
// robots.txt per month.
func (r *Result) AdoptionSeries() stats.Series {
	return r.series("adoption %", func(m MonthMetrics) float64 {
		return stats.Percent(m.AdoptedSites, r.Spec.Sites)
	})
}

// DisallowedKBSeries is the monthly violation volume in KiB.
func (r *Result) DisallowedKBSeries() stats.Series {
	return r.series("disallowed KiB", func(m MonthMetrics) float64 {
		return float64(m.DisallowedBytes) / 1024
	})
}

// GapSeries is the monthly mean static-list coverage gap in percent.
func (r *Result) GapSeries() stats.Series {
	return r.series("static-list gap %", func(m MonthMetrics) float64 {
		return 100 * m.StaticGap()
	})
}
