package runstore

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// absent marks a token or segment present on only one side of a diff.
const absent = "(absent)"

// VerdictMigration is one product token whose verdict class differs
// between the runs — the headline semantic change the CI gate watches.
type VerdictMigration struct {
	Token string `json:"token"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// MonthDelta is one changed integer field of one month.
type MonthDelta struct {
	Month int    `json:"month"`
	Label string `json:"label,omitempty"`
	Field string `json:"field"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
}

// PolicyFlip is one site whose stored policy plan differs between runs:
// a different adoption month, policy style, or blocker assignment.
type PolicyFlip struct {
	Site   int    `json:"site"`
	Domain string `json:"domain"`
	Field  string `json:"field"` // adopt_month | style | blocker
	A      string `json:"a"`
	B      string `json:"b"`
}

// MixDelta is one changed decision-mix count.
type MixDelta struct {
	Action string `json:"action"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

// QuotaDelta is one changed per-tenant quota-ledger count between two
// gateway-driven loadgen runs — a tenant-mix shift at the fleet edge.
type QuotaDelta struct {
	Tenant string `json:"tenant"`
	Field  string `json:"field"` // granted | throttled | rate | burst
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

// ExperimentChange is one experiment whose stored output changed.
type ExperimentChange struct {
	ID string `json:"id"`
	// Change is "changed", "only-a", or "only-b".
	Change string `json:"change"`
}

// BenchDelta compares one benchmark present in both runs' bench
// segments. Advisory: wall-clock, not semantics.
type BenchDelta struct {
	Name    string  `json:"name"`
	ANsOp   float64 `json:"a_ns_op"`
	BNsOp   float64 `json:"b_ns_op"`
	Speedup float64 `json:"speedup"` // a/b: >1 means b is faster
	AAllocs int64   `json:"a_allocs"`
	BAllocs int64   `json:"b_allocs"`
}

// maxStoredFlips caps the per-site flip list a Diff carries; FlipTotals
// always holds the full per-field counts.
const maxStoredFlips = 1000

// Diff is the semantic delta between two runs. The first six fields are
// semantic — Empty reports on them alone; BenchDeltas and MetricDeltas
// are advisory (measured performance and process-metric drift vary
// between identical runs by construction).
type Diff struct {
	A Meta `json:"a"`
	B Meta `json:"b"`

	VerdictMigrations []VerdictMigration `json:"verdict_migrations,omitempty"`
	MonthDeltas       []MonthDelta       `json:"month_deltas,omitempty"`
	PolicyFlips       []PolicyFlip       `json:"policy_flips,omitempty"`
	// FlipTotals counts every flip per field, even past the stored cap.
	FlipTotals        map[string]int     `json:"flip_totals,omitempty"`
	MixDeltas         []MixDelta         `json:"mix_deltas,omitempty"`
	QuotaDeltas       []QuotaDelta       `json:"quota_deltas,omitempty"`
	ExperimentChanges []ExperimentChange `json:"experiment_changes,omitempty"`

	BenchDeltas  []BenchDelta `json:"bench_deltas,omitempty"`
	MetricDeltas []obs.Delta  `json:"metric_deltas,omitempty"`
}

// Empty reports whether the runs are semantically identical. Advisory
// sections (bench, metrics) are ignored: two runs of the same
// (spec, seed, rev) must diff Empty even though their wall-clock
// metrics drifted.
func (d *Diff) Empty() bool {
	return len(d.VerdictMigrations) == 0 && len(d.MonthDeltas) == 0 &&
		len(d.PolicyFlips) == 0 && len(d.MixDeltas) == 0 &&
		len(d.QuotaDeltas) == 0 && len(d.ExperimentChanges) == 0
}

// DiffRuns computes the semantic delta from a to b. Only segments both
// runs carry are compared, so scenario runs diff against scenario runs,
// experiment runs against experiment runs, and a mixed pair degrades to
// the shared segments (typically just metrics drift).
func DiffRuns(a, b *Run) *Diff {
	d := &Diff{A: a.Meta, B: b.Meta}
	diffVerdicts(d, a, b)
	diffMonths(d, a, b)
	diffSites(d, a, b)
	diffMix(d, a, b)
	diffQuotas(d, a, b)
	diffExperiments(d, a, b)
	diffBench(d, a, b)
	if len(a.Metrics) > 0 && len(b.Metrics) > 0 {
		// Snapshot drift is advisory; a malformed segment (hand-edited
		// store) degrades to no metric section rather than failing the
		// whole diff.
		if deltas, err := obs.SnapshotDelta(a.Metrics, b.Metrics); err == nil {
			d.MetricDeltas = deltas
		}
	}
	return d
}

func diffVerdicts(d *Diff, a, b *Run) {
	if a.Verdicts == nil && b.Verdicts == nil {
		return
	}
	tokens := make(map[string]struct{}, len(a.Verdicts)+len(b.Verdicts))
	for t := range a.Verdicts {
		tokens[t] = struct{}{}
	}
	for t := range b.Verdicts {
		tokens[t] = struct{}{}
	}
	for t := range tokens {
		va, inA := a.Verdicts[t]
		vb, inB := b.Verdicts[t]
		if inA && inB && va == vb {
			continue
		}
		if !inA {
			va = absent
		}
		if !inB {
			vb = absent
		}
		d.VerdictMigrations = append(d.VerdictMigrations, VerdictMigration{Token: t, From: va, To: vb})
	}
	sort.Slice(d.VerdictMigrations, func(i, j int) bool {
		return d.VerdictMigrations[i].Token < d.VerdictMigrations[j].Token
	})
}

// monthFields enumerates MonthMetrics' integer fields for the differ.
var monthFields = []struct {
	name string
	get  func(scenario.MonthMetrics) int64
}{
	{"adopted_sites", func(m scenario.MonthMetrics) int64 { return int64(m.AdoptedSites) }},
	{"managed_sites", func(m scenario.MonthMetrics) int64 { return int64(m.ManagedSites) }},
	{"active_blockers", func(m scenario.MonthMetrics) int64 { return int64(m.ActiveBlockers) }},
	{"visits", func(m scenario.MonthMetrics) int64 { return int64(m.Visits) }},
	{"robots_fetches", func(m scenario.MonthMetrics) int64 { return int64(m.RobotsFetches) }},
	{"disallowed_bytes", func(m scenario.MonthMetrics) int64 { return m.DisallowedBytes }},
	{"allowed_bytes", func(m scenario.MonthMetrics) int64 { return m.AllowedBytes }},
	{"blocked_requests", func(m scenario.MonthMetrics) int64 { return int64(m.BlockedRequests) }},
	{"gap_missing", func(m scenario.MonthMetrics) int64 { return int64(m.GapMissing) }},
	{"gap_announced", func(m scenario.MonthMetrics) int64 { return int64(m.GapAnnounced) }},
	{"gap_sites", func(m scenario.MonthMetrics) int64 { return int64(m.GapSites) }},
}

func diffMonths(d *Diff, a, b *Run) {
	if len(a.Months) == 0 && len(b.Months) == 0 {
		return
	}
	if len(a.Months) != len(b.Months) {
		d.MonthDeltas = append(d.MonthDeltas, MonthDelta{
			Month: -1, Field: "month_count",
			A: int64(len(a.Months)), B: int64(len(b.Months)),
		})
	}
	n := len(a.Months)
	if len(b.Months) < n {
		n = len(b.Months)
	}
	for i := 0; i < n; i++ {
		ma, mb := a.Months[i], b.Months[i]
		for _, f := range monthFields {
			if va, vb := f.get(ma), f.get(mb); va != vb {
				d.MonthDeltas = append(d.MonthDeltas, MonthDelta{
					Month: ma.Month, Label: ma.Label, Field: f.name, A: va, B: vb,
				})
			}
		}
		for c := range ma.ClassCounts {
			if va, vb := ma.ClassCounts[c], mb.ClassCounts[c]; va != vb {
				d.MonthDeltas = append(d.MonthDeltas, MonthDelta{
					Month: ma.Month, Label: ma.Label,
					Field: "class:" + measure.Verdict(c).String(),
					A:     int64(va), B: int64(vb),
				})
			}
		}
	}
}

func diffSites(d *Diff, a, b *Run) {
	if len(a.Sites) == 0 || len(b.Sites) == 0 {
		return
	}
	record := func(f PolicyFlip) {
		if d.FlipTotals == nil {
			d.FlipTotals = make(map[string]int)
		}
		d.FlipTotals[f.Field]++
		if len(d.PolicyFlips) < maxStoredFlips {
			d.PolicyFlips = append(d.PolicyFlips, f)
		}
	}
	n := len(a.Sites)
	if len(b.Sites) < n {
		n = len(b.Sites)
	}
	for i := 0; i < n; i++ {
		pa, pb := a.Sites[i], b.Sites[i]
		if pa.AdoptMonth != pb.AdoptMonth {
			record(PolicyFlip{
				Site: pa.Site, Domain: pa.Domain, Field: "adopt_month",
				A: fmt.Sprint(pa.AdoptMonth), B: fmt.Sprint(pb.AdoptMonth),
			})
		}
		if pa.Style != pb.Style {
			record(PolicyFlip{
				Site: pa.Site, Domain: pa.Domain, Field: "style",
				A: orNone(pa.Style), B: orNone(pb.Style),
			})
		}
		if pa.Blocker != pb.Blocker {
			record(PolicyFlip{
				Site: pa.Site, Domain: pa.Domain, Field: "blocker",
				A: fmt.Sprint(pa.Blocker), B: fmt.Sprint(pb.Blocker),
			})
		}
	}
	if len(a.Sites) != len(b.Sites) {
		record(PolicyFlip{
			Site: -1, Domain: "(population)", Field: "site_count",
			A: fmt.Sprint(len(a.Sites)), B: fmt.Sprint(len(b.Sites)),
		})
	}
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func diffMix(d *Diff, a, b *Run) {
	if a.Decisions == nil || b.Decisions == nil {
		return
	}
	ma, mb := a.Decisions, b.Decisions
	for _, f := range []struct {
		name string
		a, b int64
	}{
		{"issued", ma.Issued, mb.Issued},
		{"allow", ma.Allow, mb.Allow},
		{"deny", ma.Deny, mb.Deny},
		{"block", ma.Block, mb.Block},
	} {
		if f.a != f.b {
			d.MixDeltas = append(d.MixDeltas, MixDelta{Action: f.name, A: f.a, B: f.b})
		}
	}
}

func diffQuotas(d *Diff, a, b *Run) {
	if a.Quotas == nil || b.Quotas == nil {
		return
	}
	qa, qb := a.Quotas, b.Quotas
	if qa.Rate != qb.Rate {
		d.QuotaDeltas = append(d.QuotaDeltas, QuotaDelta{
			Tenant: "(limiter)", Field: "rate", A: int64(qa.Rate), B: int64(qb.Rate)})
	}
	if qa.Burst != qb.Burst {
		d.QuotaDeltas = append(d.QuotaDeltas, QuotaDelta{
			Tenant: "(limiter)", Field: "burst", A: int64(qa.Burst), B: int64(qb.Burst)})
	}
	byTenant := func(ts []TenantQuota) map[string]TenantQuota {
		m := make(map[string]TenantQuota, len(ts))
		for _, t := range ts {
			m[t.Tenant] = t
		}
		return m
	}
	am, bm := byTenant(qa.Tenants), byTenant(qb.Tenants)
	names := make([]string, 0, len(am)+len(bm))
	seen := make(map[string]struct{}, len(am)+len(bm))
	for _, t := range qa.Tenants {
		if _, ok := seen[t.Tenant]; !ok {
			seen[t.Tenant] = struct{}{}
			names = append(names, t.Tenant)
		}
	}
	for _, t := range qb.Tenants {
		if _, ok := seen[t.Tenant]; !ok {
			seen[t.Tenant] = struct{}{}
			names = append(names, t.Tenant)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ta, tb := am[n], bm[n] // zero value when absent: counts read 0
		if ta.Granted != tb.Granted {
			d.QuotaDeltas = append(d.QuotaDeltas, QuotaDelta{
				Tenant: n, Field: "granted", A: int64(ta.Granted), B: int64(tb.Granted)})
		}
		if ta.Throttled != tb.Throttled {
			d.QuotaDeltas = append(d.QuotaDeltas, QuotaDelta{
				Tenant: n, Field: "throttled", A: int64(ta.Throttled), B: int64(tb.Throttled)})
		}
	}
}

func diffExperiments(d *Diff, a, b *Run) {
	if len(a.Experiments) == 0 && len(b.Experiments) == 0 {
		return
	}
	byID := func(recs []ExperimentRecord) map[string][]byte {
		m := make(map[string][]byte, len(recs))
		for _, r := range recs {
			m[r.ID] = r.Raw
		}
		return m
	}
	am, bm := byID(a.Experiments), byID(b.Experiments)
	ids := make([]string, 0, len(am)+len(bm))
	seen := make(map[string]struct{}, len(am)+len(bm))
	for _, r := range a.Experiments {
		if _, ok := seen[r.ID]; !ok {
			seen[r.ID] = struct{}{}
			ids = append(ids, r.ID)
		}
	}
	for _, r := range b.Experiments {
		if _, ok := seen[r.ID]; !ok {
			seen[r.ID] = struct{}{}
			ids = append(ids, r.ID)
		}
	}
	for _, id := range ids {
		ra, inA := am[id]
		rb, inB := bm[id]
		switch {
		case !inA:
			d.ExperimentChanges = append(d.ExperimentChanges, ExperimentChange{ID: id, Change: "only-b"})
		case !inB:
			d.ExperimentChanges = append(d.ExperimentChanges, ExperimentChange{ID: id, Change: "only-a"})
		case !bytes.Equal(ra, rb):
			d.ExperimentChanges = append(d.ExperimentChanges, ExperimentChange{ID: id, Change: "changed"})
		}
	}
}

func diffBench(d *Diff, a, b *Run) {
	if len(a.Bench) == 0 || len(b.Bench) == 0 {
		return
	}
	names := make([]string, 0, len(a.Bench))
	for n := range a.Bench {
		if _, ok := b.Bench[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ea, eb := a.Bench[n], b.Bench[n]
		bd := BenchDelta{
			Name: n, ANsOp: ea.NsPerOp, BNsOp: eb.NsPerOp,
			AAllocs: ea.AllocsPerOp, BAllocs: eb.AllocsPerOp,
		}
		if eb.NsPerOp > 0 {
			bd.Speedup = ea.NsPerOp / eb.NsPerOp
		}
		d.BenchDeltas = append(d.BenchDeltas, bd)
	}
}
